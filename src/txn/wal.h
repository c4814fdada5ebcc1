#ifndef SKINNER_TXN_WAL_H_
#define SKINNER_TXN_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace skinner {

/// Record-oriented write-ahead log.
///
/// On-disk format: a sequence of self-delimiting frames
///
///   [u32 magic][u32 crc32][u32 payload_len][payload bytes]
///
/// where payload = [u8 record_type][u64 lsn][type-specific body], all
/// integers little-endian, and crc32 covers exactly the payload. A frame
/// whose magic, CRC or length does not check out marks the end of the
/// valid prefix: replay stops there and truncates the tail (a torn final
/// write after a crash must not poison the log). Values are encoded with a
/// tag byte (0 NULL, 1 int64, 2 double, 3 string text) — strings travel as
/// text, not dictionary ids, so the log stays valid across string-pool
/// rebuilds.
///
/// Records are physical redo: the database applies a mutation to a private
/// copy of the table first, then appends the exact deltas, and publishes
/// the copy only once the append (and its fsync) succeeded. Replay therefore never
/// re-evaluates SQL and is idempotent over a prefix (recovery_test pins
/// this).

/// When to fsync the log file.
enum class FsyncPolicy {
  /// Never fsync from the WAL layer: completed write()s still survive a
  /// process kill (the page cache is the OS's), only a machine crash can
  /// lose them. The default: cheap, and exactly the guarantee the
  /// kill-in-the-middle harness exercises.
  kNever,
  /// fsync after every append: machine-crash durable, one disk flush per
  /// DML statement.
  kAlways,
};

enum class WalRecordType : uint8_t {
  kCreateTable = 1,
  kDropTable = 2,
  kInsertRows = 3,
  kUpdateCells = 4,
  kDeleteRows = 5,
};

/// One logical log record (the in-memory form of a frame payload).
struct WalRecord {
  WalRecordType type = WalRecordType::kInsertRows;
  uint64_t lsn = 0;  // assigned by WalWriter::Append
  std::string table;

  std::vector<ColumnDef> columns;  // kCreateTable

  std::vector<std::vector<Value>> rows;  // kInsertRows

  struct Cell {
    int64_t row = 0;
    int32_t col = 0;
    Value value;
  };
  std::vector<Cell> cells;  // kUpdateCells

  std::vector<int64_t> deleted_rows;  // kDeleteRows
};

/// Result of scanning a log file for replay.
struct WalReplay {
  std::vector<WalRecord> records;  // the valid prefix, in append order
  uint64_t valid_bytes = 0;        // offset of the first invalid frame
  bool tail_truncated = false;     // file extended past valid_bytes
};

/// Reads every valid frame of `path`. A missing file yields an empty
/// replay (fresh database). When the file extends past the last valid
/// frame the tail is truncated in place (and the truncation fsynced, so a
/// later power loss cannot resurrect it) so a subsequent writer appends at
/// a clean boundary.
Result<WalReplay> ReplayWal(const std::string& path);

/// fsyncs the directory containing `file_path`, persisting a rename or
/// truncate of the directory entry itself — fsync of the file only covers
/// its data and inode, not the entry that names it.
Status FsyncParentDir(const std::string& file_path);

/// Append-side handle. Not thread-safe: the database serializes all DML
/// under its writer mutex, which is also the WAL append order.
class WalWriter {
 public:
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens `path` for appending (creating it if needed). `next_lsn` is one
  /// past the highest LSN replayed from the existing file.
  static Result<std::unique_ptr<WalWriter>> Open(const std::string& path,
                                                 FsyncPolicy policy,
                                                 uint64_t next_lsn);

  /// Assigns the record's LSN, appends one frame and applies the fsync
  /// policy. On an I/O error (write or fsync) the frame is cut off the log
  /// again, so the log still ends at its last whole frame; if that cut
  /// fails too, every later append returns the error.
  Status Append(WalRecord* record);

  /// Truncates the log to empty (checkpoint: the snapshot now carries the
  /// state the log used to).
  Status Reset();

  /// Forces an fsync regardless of policy.
  Status Sync();

  uint64_t appends() const { return appends_; }
  uint64_t bytes() const { return bytes_; }
  /// Highest LSN assigned so far (0 before the first append). A checkpoint
  /// snapshot records this value so recovery can fence out any log records
  /// the snapshot already contains.
  uint64_t last_lsn() const { return next_lsn_ - 1; }
  FsyncPolicy policy() const { return policy_; }

 private:
  WalWriter(int fd, std::string path, FsyncPolicy policy, uint64_t next_lsn,
            uint64_t size)
      : fd_(fd),
        path_(std::move(path)),
        policy_(policy),
        next_lsn_(next_lsn),
        size_(size) {}

  int fd_ = -1;
  std::string path_;
  FsyncPolicy policy_ = FsyncPolicy::kNever;
  uint64_t next_lsn_ = 1;
  uint64_t appends_ = 0;
  uint64_t bytes_ = 0;
  uint64_t size_ = 0;  // file bytes: whole frames only
  Status broken_;      // set when a failed frame could not be cut off
};

// Byte-codec helpers shared with the snapshot writer (src/txn/snapshot.cc)
// and the WAL tests, which hand-craft corrupt frames.
namespace wal_codec {

inline constexpr uint32_t kFrameMagic = 0x4C57'4B53u;  // "SKWL"

void PutU8(std::string* out, uint8_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
void PutI64(std::string* out, int64_t v);
void PutDouble(std::string* out, double v);
void PutString(std::string* out, std::string_view s);
void PutValue(std::string* out, const Value& v);

/// Cursor over an encoded byte range; every Read* returns false on
/// underflow instead of reading past the end.
struct Reader {
  const char* p = nullptr;
  const char* end = nullptr;

  bool ReadU8(uint8_t* v);
  bool ReadU32(uint32_t* v);
  bool ReadU64(uint64_t* v);
  bool ReadI64(int64_t* v);
  bool ReadDouble(double* v);
  bool ReadString(std::string* s);
  bool ReadValue(Value* v);
};

uint32_t Crc32(const char* data, size_t n);

/// Serializes `record` (sans frame header) / parses a payload. Exposed for
/// tests; Append/ReplayWal wrap these with framing.
std::string EncodePayload(const WalRecord& record);
bool DecodePayload(const char* data, size_t n, WalRecord* out);

}  // namespace wal_codec

}  // namespace skinner

#endif  // SKINNER_TXN_WAL_H_
