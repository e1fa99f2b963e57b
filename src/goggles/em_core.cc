#include "goggles/em_core.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "tensor/gemm.h"

namespace goggles {
namespace em {

double LogSoftmaxRowInPlace(const double* offsets, int64_t k, double* row) {
  // Pass 1: fold in the per-component offsets and track the row max.
  double max_v = -std::numeric_limits<double>::infinity();
  for (int64_t c = 0; c < k; ++c) {
    row[c] += offsets[c];
    max_v = std::max(max_v, row[c]);
  }
  double lse = max_v;
  if (std::isfinite(max_v)) {
    double acc = 0.0;
    for (int64_t c = 0; c < k; ++c) acc += std::exp(row[c] - max_v);
    lse = max_v + std::log(acc);
  }
  for (int64_t c = 0; c < k; ++c) row[c] -= lse;
  return lse;
}

double LogSoftmaxRowsInPlace(const std::vector<double>& offsets,
                             Matrix* densities) {
  double total_ll = 0.0;
  for (int64_t i = 0; i < densities->rows(); ++i) {
    total_ll += LogSoftmaxRowInPlace(offsets.data(), densities->cols(),
                                     densities->RowPtr(i));
  }
  return total_ll;
}

void ExpInto(const Matrix& log_resp, Matrix* resp) {
  EnsureShape(log_resp.rows(), log_resp.cols(), resp);
  const double* src = log_resp.data();
  double* dst = resp->data();
  const int64_t size = log_resp.size();
  for (int64_t i = 0; i < size; ++i) dst[i] = std::exp(src[i]);
}

void ResponsibilitiesInto(const Matrix& log_resp, Matrix* resp) {
  EnsureShape(log_resp.rows(), log_resp.cols(), resp);
  constexpr double kMinNormal = std::numeric_limits<double>::min();
  const double* src = log_resp.data();
  double* dst = resp->data();
  const int64_t size = log_resp.size();
  for (int64_t i = 0; i < size; ++i) {
    const double r = std::exp(src[i]);
    dst[i] = r < kMinNormal ? 0.0 : r;
  }
}

void ColumnSums(const Matrix& m, std::vector<double>* out) {
  const int64_t n = m.rows(), k = m.cols();
  out->assign(static_cast<size_t>(k), 0.0);
  double* acc = out->data();
  for (int64_t i = 0; i < n; ++i) {
    const double* row = m.RowPtr(i);
    for (int64_t c = 0; c < k; ++c) acc[c] += row[c];
  }
}

Status ValidateWeights(const std::vector<double>& weights, int64_t k,
                       const char* who) {
  if (static_cast<int64_t>(weights.size()) != k) {
    return Status::InvalidArgument(std::string(who) +
                                   ": weights length must equal K");
  }
  double weight_sum = 0.0;
  for (double w : weights) {
    if (!std::isfinite(w) || w < 0.0) {
      return Status::InvalidArgument(
          std::string(who) + ": weights must be finite and non-negative");
    }
    weight_sum += w;
  }
  if (!(weight_sum > 0.0)) {
    return Status::InvalidArgument(std::string(who) +
                                   ": weights must not all be zero");
  }
  return Status::OK();
}

}  // namespace em
}  // namespace goggles
