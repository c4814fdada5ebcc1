#ifndef SKINNER_STORAGE_CATALOG_H_
#define SKINNER_STORAGE_CATALOG_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/string_pool.h"
#include "storage/table.h"

namespace skinner {

/// One immutable version of the catalog: the set of tables a query sees
/// from bind to its last row. A query pins the version it binds against
/// (BoundQuery::catalog_version), so every Table* it holds stays valid and
/// unchanged however many writers publish after it (paper 4.5: Skinner-C's
/// execution state is a position vector over data that does not change
/// during the query).
///
/// Writers never change a published version. They derive the next one with
/// With()/Without() — copying only the name -> table map; tables are
/// shared — and publish it through Catalog::Publish.
class CatalogVersion {
 public:
  /// Case-insensitive lookup; nullptr if absent.
  Table* FindTable(const std::string& name) const;

  /// Sorted table names.
  std::vector<std::string> TableNames() const;

  /// This version with `table` added, or replacing the table of the same
  /// name.
  std::shared_ptr<CatalogVersion> With(std::shared_ptr<Table> table) const;
  /// This version without table `name` (which must exist).
  std::shared_ptr<CatalogVersion> Without(const std::string& name) const;

 private:
  std::unordered_map<std::string, std::shared_ptr<Table>> tables_;  // lowercase key
};

/// Owns the current catalog version plus the shared string dictionary.
///
/// Readers call Current() and keep the returned version for as long as
/// they use its tables; a reader never waits for a writer beyond the
/// pointer copy. Writers are serialized by their caller (Database's writer
/// mutex): each builds the next version privately and installs it with
/// Publish(), one pointer swap.
///
/// CreateTable/DropTable/FindTable/TableNames act on the current version
/// directly, for loaders and tests that populate a database before it
/// serves anything: a Table* from FindTable lives only as long as the
/// current version keeps it.
class Catalog {
 public:
  Catalog();
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Pins the current version.
  std::shared_ptr<const CatalogVersion> Current() const;

  /// Installs `next` as the current version. Writers only, serialized.
  void Publish(std::shared_ptr<const CatalogVersion> next);

  /// A new, empty table with a fresh id, not yet in any version; fails
  /// with AlreadyExists when `base` has a table of that name
  /// (case-insensitive).
  Result<std::shared_ptr<Table>> NewTable(const CatalogVersion& base,
                                          const std::string& name,
                                          Schema schema);

  /// Creates an empty table in a newly published version; fails with
  /// AlreadyExists on name clash (case-insensitive).
  Result<Table*> CreateTable(const std::string& name, Schema schema);

  /// Removes a table (newly published version); fails with NotFound if
  /// absent.
  Status DropTable(const std::string& name);

  /// Case-insensitive lookup in the current version; nullptr if absent.
  Table* FindTable(const std::string& name) const;

  std::vector<std::string> TableNames() const;

  StringPool* string_pool() { return &pool_; }
  const StringPool& string_pool() const { return pool_; }

 private:
  StringPool pool_;
  mutable std::mutex current_mu_;  // guards the pointer, not the version
  std::shared_ptr<const CatalogVersion> current_;
  /// Source of unique table ids; never reused, so a DROP + CREATE under the
  /// same name yields a distinct identity stamp (see Table::id()).
  uint64_t next_table_id_ = 0;
};

}  // namespace skinner

#endif  // SKINNER_STORAGE_CATALOG_H_
