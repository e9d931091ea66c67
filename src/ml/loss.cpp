#include "ml/loss.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace autolearn::ml {

std::pair<double, Tensor> mse_loss(const Tensor& pred, const Tensor& target) {
  pred.check_same_shape(target, "mse_loss");
  Tensor grad(pred.shape());
  double loss = 0;
  const double inv = 1.0 / static_cast<double>(pred.size());
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const double d = static_cast<double>(pred[i]) - target[i];
    loss += d * d;
    grad[i] = static_cast<float>(2.0 * d * inv);
  }
  return {loss * inv, std::move(grad)};
}

double softmax_xent_slice(const Tensor& logits, std::size_t begin,
                          std::size_t end,
                          const std::vector<std::size_t>& targets,
                          Tensor& grad_accum) {
  if (logits.rank() != 2) throw std::invalid_argument("xent: rank != 2");
  const std::size_t n = logits.dim(0), w = logits.dim(1);
  if (end <= begin || end > w) throw std::invalid_argument("xent: bad slice");
  if (targets.size() != n) throw std::invalid_argument("xent: target count");
  grad_accum.check_same_shape(logits, "xent grad");
  const std::size_t classes = end - begin;
  double loss = 0;
  const double invn = 1.0 / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (targets[i] >= classes) throw std::invalid_argument("xent: bad label");
    // Stable softmax.
    float maxv = logits.at(i, begin);
    for (std::size_t c = 1; c < classes; ++c) {
      maxv = std::max(maxv, logits.at(i, begin + c));
    }
    double denom = 0;
    for (std::size_t c = 0; c < classes; ++c) {
      denom += std::exp(static_cast<double>(logits.at(i, begin + c) - maxv));
    }
    for (std::size_t c = 0; c < classes; ++c) {
      const double p =
          std::exp(static_cast<double>(logits.at(i, begin + c) - maxv)) /
          denom;
      grad_accum.at(i, begin + c) +=
          static_cast<float>((p - (c == targets[i] ? 1.0 : 0.0)) * invn);
      if (c == targets[i]) loss -= std::log(std::max(p, 1e-12));
    }
  }
  return loss * invn;
}

void softmax_into(const float* row, std::size_t begin, std::size_t end,
                  float* out) {
  const std::size_t classes = end - begin;
  float maxv = row[begin];
  for (std::size_t c = 1; c < classes; ++c) {
    maxv = std::max(maxv, row[begin + c]);
  }
  double denom = 0;
  for (std::size_t c = 0; c < classes; ++c) {
    out[c] = std::exp(row[begin + c] - maxv);
    denom += out[c];
  }
  for (std::size_t c = 0; c < classes; ++c) {
    out[c] = static_cast<float>(out[c] / denom);
  }
}

std::vector<float> softmax_row(const Tensor& logits, std::size_t row,
                               std::size_t begin, std::size_t end) {
  std::vector<float> out(end - begin);
  softmax_into(logits.data() + row * logits.dim(1), begin, end, out.data());
  return out;
}

}  // namespace autolearn::ml
