#include "txn/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/str_util.h"
#include "txn/wal.h"

namespace skinner {

namespace {

using wal_codec::PutU32;
using wal_codec::PutU64;
using wal_codec::PutU8;
using wal_codec::Reader;

constexpr uint32_t kSnapshotMagic = 0x4E53'4B53u;  // "SKSN"
constexpr uint32_t kSnapshotVersion = 2;  // v2: u64 LSN fence after version

void PutStr(std::string* out, std::string_view s) {
  wal_codec::PutString(out, s);
}

void EncodeColumnArray(std::string* out, const Column& col, int64_t rows) {
  // Payload array: doubles for kDouble, int64 (values or dictionary codes)
  // otherwise. Arrays are dumped verbatim — exactly `rows` entries.
  if (col.type() == DataType::kDouble) {
    for (int64_t r = 0; r < rows; ++r) {
      wal_codec::PutDouble(out, col.raw_doubles()[static_cast<size_t>(r)]);
    }
  } else {
    for (int64_t r = 0; r < rows; ++r) {
      wal_codec::PutI64(out, col.raw_ints()[static_cast<size_t>(r)]);
    }
  }
  const bool has_nulls = !col.raw_nulls().empty();
  PutU8(out, has_nulls ? 1 : 0);
  if (has_nulls) {
    out->append(reinterpret_cast<const char*>(col.raw_nulls().data()),
                static_cast<size_t>(rows));
  }
}

bool DecodeColumnArray(Reader* r, Column* col, int64_t rows) {
  // The row count is untrusted input (the whole-file CRC already passed,
  // but defend anyway): every row costs 8 payload bytes, so a claim larger
  // than the remaining bytes must fail before the resize below.
  if (rows < 0 ||
      static_cast<uint64_t>(rows) > static_cast<uint64_t>(r->end - r->p) / 8) {
    return false;
  }
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<uint8_t> nulls;
  if (col->type() == DataType::kDouble) {
    doubles.resize(static_cast<size_t>(rows));
    for (int64_t i = 0; i < rows; ++i) {
      if (!r->ReadDouble(&doubles[static_cast<size_t>(i)])) return false;
    }
  } else {
    ints.resize(static_cast<size_t>(rows));
    for (int64_t i = 0; i < rows; ++i) {
      if (!r->ReadI64(&ints[static_cast<size_t>(i)])) return false;
    }
  }
  uint8_t has_nulls;
  if (!r->ReadU8(&has_nulls)) return false;
  if (has_nulls) {
    if (r->end - r->p < rows) return false;
    nulls.assign(reinterpret_cast<const uint8_t*>(r->p),
                 reinterpret_cast<const uint8_t*>(r->p) + rows);
    r->p += rows;
  }
  col->RestoreRaw(std::move(ints), std::move(doubles), std::move(nulls));
  return true;
}

Status WriteFileAtomic(const std::string& path, const std::string& data) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    return Status::IoError(
        StrFormat("open %s: %s", tmp.c_str(), std::strerror(errno)));
  }
  size_t written = 0;
  while (written < data.size()) {
    ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::IoError(
          StrFormat("write %s: %s", tmp.c_str(), std::strerror(err)));
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::IoError(
        StrFormat("fsync %s: %s", tmp.c_str(), std::strerror(err)));
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    int err = errno;
    ::unlink(tmp.c_str());
    return Status::IoError(StrFormat("rename %s -> %s: %s", tmp.c_str(),
                                     path.c_str(), std::strerror(err)));
  }
  // The rename only becomes crash-durable once the directory entry is on
  // disk; without this a power loss can roll back to the old snapshot even
  // though the WAL was already reset against the new one.
  return FsyncParentDir(path);
}

}  // namespace

Status WriteSnapshot(const std::string& path, const CatalogVersion& version,
                     const StringPool& pool, uint64_t last_lsn) {
  std::string out;
  PutU32(&out, kSnapshotMagic);
  PutU32(&out, kSnapshotVersion);
  PutU64(&out, last_lsn);

  // String pool, in id order (reload re-interns to identical ids).
  const uint32_t n_strings = static_cast<uint32_t>(pool.size());
  PutU32(&out, n_strings);
  for (uint32_t i = 0; i < n_strings; ++i) {
    PutStr(&out, pool.Get(static_cast<int32_t>(i)));
  }

  const std::vector<std::string> names = version.TableNames();
  PutU32(&out, static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) {
    const Table* t = version.FindTable(name);
    PutStr(&out, t->name());
    const Schema& schema = t->schema();
    PutU32(&out, static_cast<uint32_t>(schema.num_columns()));
    for (int c = 0; c < schema.num_columns(); ++c) {
      PutStr(&out, schema.column(c).name);
      PutU8(&out, static_cast<uint8_t>(schema.column(c).type));
    }
    PutU64(&out, static_cast<uint64_t>(t->num_rows()));
    for (int c = 0; c < schema.num_columns(); ++c) {
      EncodeColumnArray(&out, t->column(c), t->num_rows());
    }
  }

  // Trailing CRC over everything above: a torn snapshot write can only
  // happen to the tmp file (rename is atomic), but a disk-level corruption
  // should still be detected at load.
  PutU32(&out, wal_codec::Crc32(out.data(), out.size()));
  return WriteFileAtomic(path, out);
}

Status LoadSnapshot(const std::string& path, Catalog* catalog,
                    uint64_t* last_lsn, int* tables_loaded) {
  if (last_lsn != nullptr) *last_lsn = 0;
  if (tables_loaded != nullptr) *tables_loaded = 0;
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::OK();  // fresh database
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

  auto corrupt = [&path]() {
    return Status::IoError("corrupt snapshot: " + path);
  };
  if (data.size() < 12) return corrupt();
  const uint32_t stored_crc = [&data] {
    Reader r{data.data() + data.size() - 4, data.data() + data.size()};
    uint32_t v = 0;
    r.ReadU32(&v);
    return v;
  }();
  if (wal_codec::Crc32(data.data(), data.size() - 4) != stored_crc) {
    return corrupt();
  }

  Reader r{data.data(), data.data() + data.size() - 4};
  uint32_t magic, version;
  if (!r.ReadU32(&magic) || magic != kSnapshotMagic) return corrupt();
  if (!r.ReadU32(&version) || version != kSnapshotVersion) {
    return Status::IoError(
        StrFormat("unsupported snapshot version in %s", path.c_str()));
  }
  uint64_t fence;
  if (!r.ReadU64(&fence)) return corrupt();
  if (last_lsn != nullptr) *last_lsn = fence;

  uint32_t n_strings;
  if (!r.ReadU32(&n_strings)) return corrupt();
  StringPool* pool = catalog->string_pool();
  for (uint32_t i = 0; i < n_strings; ++i) {
    std::string s;
    if (!r.ReadString(&s)) return corrupt();
    pool->Intern(s);
  }

  uint32_t n_tables;
  if (!r.ReadU32(&n_tables)) return corrupt();
  for (uint32_t ti = 0; ti < n_tables; ++ti) {
    std::string name;
    if (!r.ReadString(&name)) return corrupt();
    uint32_t n_cols;
    if (!r.ReadU32(&n_cols)) return corrupt();
    std::vector<ColumnDef> defs;
    defs.reserve(n_cols);
    for (uint32_t c = 0; c < n_cols; ++c) {
      ColumnDef def;
      if (!r.ReadString(&def.name)) return corrupt();
      uint8_t t;
      if (!r.ReadU8(&t)) return corrupt();
      if (t > static_cast<uint8_t>(DataType::kString)) return corrupt();
      def.type = static_cast<DataType>(t);
      defs.push_back(std::move(def));
    }
    uint64_t rows;
    if (!r.ReadU64(&rows)) return corrupt();
    auto created = catalog->CreateTable(name, Schema(std::move(defs)));
    if (!created.ok()) return created.status();
    Table* table = created.value();
    for (uint32_t c = 0; c < n_cols; ++c) {
      if (!DecodeColumnArray(&r, table->mutable_column(static_cast<int>(c)),
                             static_cast<int64_t>(rows))) {
        return corrupt();
      }
    }
    table->RestoreRowCount(static_cast<int64_t>(rows));
    if (tables_loaded != nullptr) ++*tables_loaded;
  }
  return Status::OK();
}

}  // namespace skinner
