#include "post/aggregates.h"

#include <cstring>

#include "common/hash_util.h"

namespace skinner {

void AggAccumulator::Add(const Value& v) {
  if (kind_ == AggKind::kCountStar) {
    ++count_;
    return;
  }
  if (v.is_null()) return;
  ++count_;
  switch (kind_) {
    case AggKind::kCount:
      break;
    case AggKind::kSum:
      if (v.type() == DataType::kInt64 &&
          __builtin_add_overflow(sum_i_, v.AsInt(), &sum_i_)) {
        sum_i_overflow_ = true;
      }
      [[fallthrough]];
    case AggKind::kAvg:
      if (v.type() == DataType::kDouble) any_double_ = true;
      sum_d_ += v.AsDouble();
      break;
    case AggKind::kMin:
      if (!has_value_ || v.Compare(best_) < 0) best_ = v;
      has_value_ = true;
      break;
    case AggKind::kMax:
      if (!has_value_ || v.Compare(best_) > 0) best_ = v;
      has_value_ = true;
      break;
    case AggKind::kCountStar:
      break;
  }
}

Result<Value> AggAccumulator::Finish() const {
  switch (kind_) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      return Value::Int(count_);
    case AggKind::kSum:
      if (count_ == 0) return Value::Null();
      if (any_double_) return Value::Double(sum_d_);
      if (sum_i_overflow_) {
        return Status::InvalidArgument(
            "integer overflow: the sum leaves the int64 range");
      }
      return Value::Int(sum_i_);
    case AggKind::kAvg:
      if (count_ == 0) return Value::Null();
      return Value::Double(sum_d_ / static_cast<double>(count_));
    case AggKind::kMin:
    case AggKind::kMax:
      return has_value_ ? best_ : Value::Null();
  }
  return Value::Null();
}

void SerializeValueKey(const Value& v, std::string* out) {
  if (v.is_null()) {
    out->push_back('\x00');
    return;
  }
  switch (v.type()) {
    case DataType::kInt64: {
      const int64_t i = v.AsInt();
      constexpr int64_t kDoubleExactBound = int64_t{1} << 53;
      if (i < -kDoubleExactBound || i > kDoubleExactBound) {
        // Beyond 2^53 the double normalization is lossy and would merge
        // distinct int64 keys into one group; key on the exact bits
        // instead (same caveat as JoinKeyOf: such values never group with
        // a double column's key).
        out->push_back('\x03');
        char buf[sizeof(i)];
        std::memcpy(buf, &i, sizeof(i));
        out->append(buf, sizeof(i));
        break;
      }
      // Normalize numerics through double so 1 and 1.0 group together.
      out->push_back('\x01');
      double d = v.AsDouble();
      if (d == 0.0) d = 0.0;  // -0.0 == +0.0: one group, one key
      char buf[sizeof(d)];
      std::memcpy(buf, &d, sizeof(d));
      out->append(buf, sizeof(d));
      break;
    }
    case DataType::kDouble: {
      out->push_back('\x01');
      double d = v.AsDouble();
      if (d == 0.0) d = 0.0;  // -0.0 == +0.0: one group, one key
      char buf[sizeof(d)];
      std::memcpy(buf, &d, sizeof(d));
      out->append(buf, sizeof(d));
      break;
    }
    case DataType::kString:
      out->push_back('\x02');
      out->append(v.AsString());
      break;
  }
  out->push_back('\x1f');
}

uint64_t HashValueKey(const Value& v) {
  if (v.is_null()) return 0x9E3779B97F4A7C15ull;  // arbitrary NULL salt
  switch (v.type()) {
    case DataType::kInt64:
    case DataType::kDouble: {
      double d = v.AsDouble();
      if (d == 0.0) d = 0.0;  // -0.0 == +0.0 must share a bucket
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(d));
      return HashMix64(bits);
    }
    case DataType::kString: {
      uint64_t seed = 0x2545F4914F6CDD1Dull;
      for (char c : v.AsString()) {
        HashCombine(&seed, static_cast<uint64_t>(static_cast<uint8_t>(c)));
      }
      return seed;
    }
  }
  return 0;
}

uint64_t HashRowKey(const std::vector<Value>& row) {
  uint64_t seed = row.size();
  for (const Value& v : row) HashCombine(&seed, HashValueKey(v));
  return seed;
}

bool RowsEqualForDistinct(const std::vector<Value>& a,
                          const std::vector<Value>& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].is_null() != b[i].is_null()) return false;
    if (a[i].is_null()) continue;
    if (b[i].type() == DataType::kString &&
        a[i].type() != DataType::kString) {
      return false;
    }
    if (a[i].type() == DataType::kString &&
        b[i].type() != DataType::kString) {
      return false;
    }
    if (a[i].Compare(b[i]) != 0) return false;
  }
  return true;
}


}  // namespace skinner
