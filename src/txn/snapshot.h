#ifndef SKINNER_TXN_SNAPSHOT_H_
#define SKINNER_TXN_SNAPSHOT_H_

#include <string>

#include "common/status.h"
#include "storage/catalog.h"

namespace skinner {

/// Checkpoint snapshots: a full binary dump of the catalog (string pool,
/// schemas, raw column arrays) written atomically (tmp + fsync + rename +
/// directory fsync), so a crash mid-checkpoint leaves the previous
/// snapshot intact.
///
/// The string pool is dumped in id order and re-interned in that order on
/// load, which reproduces every dictionary id exactly — columns can then
/// restore their raw int arrays (string cells included) verbatim.
///
/// Snapshots are written after compaction, so they never carry a validity
/// mask; the loader restores fully-valid tables.
///
/// Each snapshot records the highest WAL LSN whose effects it contains
/// (`last_lsn`). Recovery skips replayed records with lsn <= last_lsn, so
/// a crash between the snapshot rename and the WAL reset — new snapshot on
/// disk, old log still present — replays nothing twice: without the fence,
/// inserts would double-apply and update/delete row ids would address the
/// wrong rows of the compacted snapshot.

/// Serializes every table of `version`, plus the string pool it codes its
/// strings in, to `path` atomically. `last_lsn` is the highest WAL LSN
/// whose effects `version` contains (WalWriter::last_lsn at checkpoint
/// time; 0 for a fresh database). The caller keeps writers out of the pool
/// and the log meanwhile; readers may run.
Status WriteSnapshot(const std::string& path, const CatalogVersion& version,
                     const StringPool& pool, uint64_t last_lsn);

/// Restores `catalog` (which must be empty) from `path`. A missing file is
/// OK — the database is fresh. Returns the snapshot's LSN fence via
/// `last_lsn` and the number of tables loaded via `tables_loaded` when
/// non-null.
Status LoadSnapshot(const std::string& path, Catalog* catalog,
                    uint64_t* last_lsn = nullptr,
                    int* tables_loaded = nullptr);

}  // namespace skinner

#endif  // SKINNER_TXN_SNAPSHOT_H_
