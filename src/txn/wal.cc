#include "txn/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/str_util.h"

namespace skinner {

namespace wal_codec {

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutDouble(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

void PutValue(std::string* out, const Value& v) {
  if (v.is_null()) {
    PutU8(out, 0);
    return;
  }
  switch (v.type()) {
    case DataType::kInt64:
      PutU8(out, 1);
      PutI64(out, v.AsInt());
      break;
    case DataType::kDouble:
      PutU8(out, 2);
      PutDouble(out, v.AsDouble());
      break;
    case DataType::kString:
      PutU8(out, 3);
      PutString(out, v.AsString());
      break;
  }
}

bool Reader::ReadU8(uint8_t* v) {
  if (end - p < 1) return false;
  *v = static_cast<uint8_t>(*p++);
  return true;
}

bool Reader::ReadU32(uint32_t* v) {
  if (end - p < 4) return false;
  uint32_t x = 0;
  for (int i = 0; i < 4; ++i) {
    x |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  p += 4;
  *v = x;
  return true;
}

bool Reader::ReadU64(uint64_t* v) {
  if (end - p < 8) return false;
  uint64_t x = 0;
  for (int i = 0; i < 8; ++i) {
    x |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  p += 8;
  *v = x;
  return true;
}

bool Reader::ReadI64(int64_t* v) {
  uint64_t x;
  if (!ReadU64(&x)) return false;
  *v = static_cast<int64_t>(x);
  return true;
}

bool Reader::ReadDouble(double* v) {
  uint64_t bits;
  if (!ReadU64(&bits)) return false;
  std::memcpy(v, &bits, sizeof(*v));
  return true;
}

bool Reader::ReadString(std::string* s) {
  uint32_t n;
  if (!ReadU32(&n)) return false;
  if (static_cast<size_t>(end - p) < n) return false;
  s->assign(p, n);
  p += n;
  return true;
}

bool Reader::ReadValue(Value* v) {
  uint8_t tag;
  if (!ReadU8(&tag)) return false;
  switch (tag) {
    case 0:
      *v = Value::Null();
      return true;
    case 1: {
      int64_t x;
      if (!ReadI64(&x)) return false;
      *v = Value::Int(x);
      return true;
    }
    case 2: {
      double x;
      if (!ReadDouble(&x)) return false;
      *v = Value::Double(x);
      return true;
    }
    case 3: {
      std::string s;
      if (!ReadString(&s)) return false;
      *v = Value::String(std::move(s));
      return true;
    }
    default:
      return false;
  }
}

namespace {

// Standard CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table
// generated on first use.
const uint32_t* Crc32Table() {
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace

uint32_t Crc32(const char* data, size_t n) {
  const uint32_t* table = Crc32Table();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ static_cast<uint8_t>(data[i])) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string EncodePayload(const WalRecord& record) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(record.type));
  PutU64(&out, record.lsn);
  PutString(&out, record.table);
  switch (record.type) {
    case WalRecordType::kCreateTable:
      PutU32(&out, static_cast<uint32_t>(record.columns.size()));
      for (const auto& c : record.columns) {
        PutString(&out, c.name);
        PutU8(&out, static_cast<uint8_t>(c.type));
      }
      break;
    case WalRecordType::kDropTable:
      break;
    case WalRecordType::kInsertRows:
      PutU32(&out, static_cast<uint32_t>(record.rows.size()));
      for (const auto& row : record.rows) {
        PutU32(&out, static_cast<uint32_t>(row.size()));
        for (const Value& v : row) PutValue(&out, v);
      }
      break;
    case WalRecordType::kUpdateCells:
      PutU32(&out, static_cast<uint32_t>(record.cells.size()));
      for (const auto& c : record.cells) {
        PutU64(&out, static_cast<uint64_t>(c.row));
        PutU32(&out, static_cast<uint32_t>(c.col));
        PutValue(&out, c.value);
      }
      break;
    case WalRecordType::kDeleteRows:
      PutU32(&out, static_cast<uint32_t>(record.deleted_rows.size()));
      for (int64_t r : record.deleted_rows) {
        PutU64(&out, static_cast<uint64_t>(r));
      }
      break;
  }
  return out;
}

namespace {

// Bounds an untrusted element count against the bytes actually left in the
// payload (each element encodes to at least `min_bytes`), so a corrupt but
// CRC-valid frame claiming billions of elements fails decoding cleanly
// instead of triggering a multi-gigabyte reserve().
bool CountFits(const Reader& r, uint32_t count, size_t min_bytes) {
  return static_cast<uint64_t>(count) * min_bytes <=
         static_cast<uint64_t>(r.end - r.p);
}

}  // namespace

bool DecodePayload(const char* data, size_t n, WalRecord* out) {
  Reader r{data, data + n};
  uint8_t type;
  if (!r.ReadU8(&type)) return false;
  if (type < static_cast<uint8_t>(WalRecordType::kCreateTable) ||
      type > static_cast<uint8_t>(WalRecordType::kDeleteRows)) {
    return false;
  }
  out->type = static_cast<WalRecordType>(type);
  if (!r.ReadU64(&out->lsn)) return false;
  if (!r.ReadString(&out->table)) return false;
  switch (out->type) {
    case WalRecordType::kCreateTable: {
      uint32_t n_cols;
      if (!r.ReadU32(&n_cols)) return false;
      if (!CountFits(r, n_cols, 5)) return false;  // name len + type byte
      out->columns.clear();
      out->columns.reserve(n_cols);
      for (uint32_t i = 0; i < n_cols; ++i) {
        ColumnDef def;
        if (!r.ReadString(&def.name)) return false;
        uint8_t t;
        if (!r.ReadU8(&t)) return false;
        if (t > static_cast<uint8_t>(DataType::kString)) return false;
        def.type = static_cast<DataType>(t);
        out->columns.push_back(std::move(def));
      }
      break;
    }
    case WalRecordType::kDropTable:
      break;
    case WalRecordType::kInsertRows: {
      uint32_t n_rows;
      if (!r.ReadU32(&n_rows)) return false;
      if (!CountFits(r, n_rows, 4)) return false;  // per-row value count
      out->rows.clear();
      out->rows.reserve(n_rows);
      for (uint32_t i = 0; i < n_rows; ++i) {
        uint32_t n_vals;
        if (!r.ReadU32(&n_vals)) return false;
        if (!CountFits(r, n_vals, 1)) return false;  // value tag byte
        std::vector<Value> row(n_vals);
        for (uint32_t j = 0; j < n_vals; ++j) {
          if (!r.ReadValue(&row[j])) return false;
        }
        out->rows.push_back(std::move(row));
      }
      break;
    }
    case WalRecordType::kUpdateCells: {
      uint32_t n_cells;
      if (!r.ReadU32(&n_cells)) return false;
      if (!CountFits(r, n_cells, 13)) return false;  // row + col + tag
      out->cells.clear();
      out->cells.reserve(n_cells);
      for (uint32_t i = 0; i < n_cells; ++i) {
        WalRecord::Cell c;
        uint64_t row;
        uint32_t col;
        if (!r.ReadU64(&row) || !r.ReadU32(&col)) return false;
        c.row = static_cast<int64_t>(row);
        c.col = static_cast<int32_t>(col);
        if (!r.ReadValue(&c.value)) return false;
        out->cells.push_back(std::move(c));
      }
      break;
    }
    case WalRecordType::kDeleteRows: {
      uint32_t n_del;
      if (!r.ReadU32(&n_del)) return false;
      if (!CountFits(r, n_del, 8)) return false;  // u64 row id
      out->deleted_rows.clear();
      out->deleted_rows.reserve(n_del);
      for (uint32_t i = 0; i < n_del; ++i) {
        uint64_t row;
        if (!r.ReadU64(&row)) return false;
        out->deleted_rows.push_back(static_cast<int64_t>(row));
      }
      break;
    }
  }
  // Trailing bytes inside a CRC-valid payload would mean an encoder bug,
  // not corruption; accept them for forward compatibility.
  return true;
}

}  // namespace wal_codec

Result<WalReplay> ReplayWal(const std::string& path) {
  WalReplay replay;
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return replay;  // fresh database
    return Status::IoError(
        StrFormat("open %s: %s", path.c_str(), std::strerror(errno)));
  }
  std::string data;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      int err = errno;
      ::close(fd);
      return Status::IoError(
          StrFormat("read %s: %s", path.c_str(), std::strerror(err)));
    }
    if (n == 0) break;
    data.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);

  // Walk frames; the first bad magic / short frame / CRC mismatch / garbage
  // payload ends the valid prefix.
  size_t off = 0;
  constexpr size_t kHeader = 12;  // magic + crc + len
  while (data.size() - off >= kHeader) {
    wal_codec::Reader r{data.data() + off, data.data() + off + kHeader};
    uint32_t magic = 0, crc = 0, len = 0;
    r.ReadU32(&magic);
    r.ReadU32(&crc);
    r.ReadU32(&len);
    if (magic != wal_codec::kFrameMagic) break;
    if (data.size() - off - kHeader < len) break;  // torn tail
    const char* payload = data.data() + off + kHeader;
    if (wal_codec::Crc32(payload, len) != crc) break;
    WalRecord record;
    if (!wal_codec::DecodePayload(payload, len, &record)) break;
    replay.records.push_back(std::move(record));
    off += kHeader + len;
  }
  replay.valid_bytes = off;
  if (off < data.size()) {
    replay.tail_truncated = true;
    // Truncate through an fd and fsync it: the shorter length must be on
    // disk before a writer appends past it, or a power loss could
    // resurrect torn bytes in the middle of the log.
    int wfd = ::open(path.c_str(), O_WRONLY);
    if (wfd < 0) {
      return Status::IoError(
          StrFormat("open %s: %s", path.c_str(), std::strerror(errno)));
    }
    if (::ftruncate(wfd, static_cast<off_t>(off)) != 0 ||
        ::fsync(wfd) != 0) {
      int err = errno;
      ::close(wfd);
      return Status::IoError(StrFormat("truncate %s to %zu: %s", path.c_str(),
                                       off, std::strerror(err)));
    }
    ::close(wfd);
    SKINNER_RETURN_IF_ERROR(FsyncParentDir(path));
  }
  return replay;
}

Status FsyncParentDir(const std::string& file_path) {
  const size_t slash = file_path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? "."
                              : (slash == 0 ? "/" : file_path.substr(0, slash));
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IoError(
        StrFormat("open dir %s: %s", dir.c_str(), std::strerror(errno)));
  }
  if (::fsync(fd) != 0) {
    int err = errno;
    ::close(fd);
    return Status::IoError(
        StrFormat("fsync dir %s: %s", dir.c_str(), std::strerror(err)));
  }
  ::close(fd);
  return Status::OK();
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& path,
                                                   FsyncPolicy policy,
                                                   uint64_t next_lsn) {
  int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd < 0) {
    return Status::IoError(
        StrFormat("open %s: %s", path.c_str(), std::strerror(errno)));
  }
  const off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError(
        StrFormat("seek %s: %s", path.c_str(), std::strerror(err)));
  }
  return std::unique_ptr<WalWriter>(
      new WalWriter(fd, path, policy, next_lsn == 0 ? 1 : next_lsn,
                    static_cast<uint64_t>(size)));
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status WalWriter::Append(WalRecord* record) {
  SKINNER_RETURN_IF_ERROR(broken_);
  record->lsn = next_lsn_++;
  std::string payload = wal_codec::EncodePayload(*record);
  std::string frame;
  frame.reserve(12 + payload.size());
  wal_codec::PutU32(&frame, wal_codec::kFrameMagic);
  wal_codec::PutU32(&frame,
                    wal_codec::Crc32(payload.data(), payload.size()));
  wal_codec::PutU32(&frame, static_cast<uint32_t>(payload.size()));
  frame += payload;

  Status st;
  size_t written = 0;
  while (st.ok() && written < frame.size()) {
    ssize_t n = ::write(fd_, frame.data() + written, frame.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      st = Status::IoError(
          StrFormat("wal append %s: %s", path_.c_str(), std::strerror(errno)));
    } else {
      written += static_cast<size_t>(n);
    }
  }
  if (st.ok() && policy_ == FsyncPolicy::kAlways) st = Sync();
  if (!st.ok()) {
    // A failed append leaves no frame behind: a torn one would end replay
    // there and drop every later (acknowledged) record, and an unsynced
    // one would replay a statement reported as failed. If the log cannot
    // be cut back to its last whole frame, it takes no further appends.
    if (::ftruncate(fd_, static_cast<off_t>(size_)) != 0) broken_ = st;
    return st;
  }
  size_ += frame.size();
  ++appends_;
  bytes_ += frame.size();
  return Status::OK();
}

Status WalWriter::Reset() {
  if (::ftruncate(fd_, 0) != 0) {
    return Status::IoError(
        StrFormat("wal reset %s: %s", path_.c_str(), std::strerror(errno)));
  }
  size_ = 0;
  return Sync();
}

Status WalWriter::Sync() {
  if (::fsync(fd_) != 0) {
    return Status::IoError(
        StrFormat("wal fsync %s: %s", path_.c_str(), std::strerror(errno)));
  }
  return Status::OK();
}

}  // namespace skinner
