#include "storage/catalog.h"

#include <algorithm>

#include "common/str_util.h"

namespace skinner {

Table* CatalogVersion::FindTable(const std::string& name) const {
  auto it = tables_.find(ToLower(name));
  return it == tables_.end() ? nullptr : it->second.get();
}

std::vector<std::string> CatalogVersion::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [k, t] : tables_) names.push_back(t->name());
  std::sort(names.begin(), names.end());
  return names;
}

std::shared_ptr<CatalogVersion> CatalogVersion::With(
    std::shared_ptr<Table> table) const {
  auto next = std::make_shared<CatalogVersion>(*this);
  next->tables_[ToLower(table->name())] = std::move(table);
  return next;
}

std::shared_ptr<CatalogVersion> CatalogVersion::Without(
    const std::string& name) const {
  auto next = std::make_shared<CatalogVersion>(*this);
  next->tables_.erase(ToLower(name));
  return next;
}

Catalog::Catalog() : current_(std::make_shared<CatalogVersion>()) {}

std::shared_ptr<const CatalogVersion> Catalog::Current() const {
  std::lock_guard<std::mutex> lock(current_mu_);
  return current_;
}

void Catalog::Publish(std::shared_ptr<const CatalogVersion> next) {
  std::lock_guard<std::mutex> lock(current_mu_);
  current_.swap(next);
  // `next` now holds the previous version: its last holder frees it, the
  // caller (after this lock is released) or a reader that still pins it.
}

Result<std::shared_ptr<Table>> Catalog::NewTable(const CatalogVersion& base,
                                                 const std::string& name,
                                                 Schema schema) {
  if (base.FindTable(name) != nullptr) {
    return Status::AlreadyExists("table already exists: " + name);
  }
  auto table = std::make_shared<Table>(name, std::move(schema), &pool_);
  table->set_id(++next_table_id_);
  return table;
}

Result<Table*> Catalog::CreateTable(const std::string& name, Schema schema) {
  std::shared_ptr<const CatalogVersion> base = Current();
  SKINNER_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                           NewTable(*base, name, std::move(schema)));
  Table* ptr = table.get();
  Publish(base->With(std::move(table)));
  return ptr;
}

Status Catalog::DropTable(const std::string& name) {
  std::shared_ptr<const CatalogVersion> base = Current();
  if (base->FindTable(name) == nullptr) {
    return Status::NotFound("no such table: " + name);
  }
  Publish(base->Without(name));
  return Status::OK();
}

Table* Catalog::FindTable(const std::string& name) const {
  return Current()->FindTable(name);
}

std::vector<std::string> Catalog::TableNames() const {
  return Current()->TableNames();
}

}  // namespace skinner
