#include "fsmeta/badpage_table.h"

#include <cstring>

#include "common/crc32c.h"

namespace dstore::fsmeta {

BadPageTable::Header* BadPageTable::hdr() const {
  return reinterpret_cast<Header*>(pool_->base() + off_);
}

uint64_t* BadPageTable::slots() const {
  return reinterpret_cast<uint64_t*>(pool_->base() + off_ + sizeof(Header));
}

uint32_t BadPageTable::table_crc(uint64_t count) const {
  uint32_t c = 0xffffffffu;
  c = crc32c_extend_u64(c, kMagic);
  c = crc32c_extend_u64(c, count);
  c = crc32c_extend(c, slots(), count * sizeof(uint64_t));
  c ^= 0xffffffffu;
  return c == 0 ? 1u : c;
}

void BadPageTable::seal_and_persist() {
  Header* h = hdr();
  h->crc = table_crc(h->count);
  pool_->persist_bulk(pool_->base() + off_,
                      sizeof(Header) + h->count * sizeof(uint64_t));
}

void BadPageTable::format() {
  std::memset(pool_->base() + off_, 0, kRegionBytes);
  Header* h = hdr();
  h->magic = kMagic;
  h->count = 0;
  seal_and_persist();
}

void BadPageTable::attach() {
  const Header* h = hdr();
  if (h->magic != kMagic || h->count > kCapacity || h->crc != table_crc(h->count)) {
    // Torn or corrupt table: quarantine records are advisory (the page
    // checksums themselves still fail on read), so start over empty
    // rather than trusting a table that does not checksum.
    format();
  }
}

Status BadPageTable::add(uint64_t page) {
  LockGuard<SpinLock> g(mu_);
  Header* h = hdr();
  uint64_t* s = slots();
  for (uint64_t i = 0; i < h->count; i++) {
    if (s[i] == page) return Status::ok();
  }
  if (h->count >= kCapacity) return Status::out_of_space("bad-page table full");
  s[h->count] = page;
  h->count++;
  seal_and_persist();
  return Status::ok();
}

bool BadPageTable::contains(uint64_t page) const {
  LockGuard<SpinLock> g(mu_);
  const Header* h = hdr();
  const uint64_t* s = slots();
  for (uint64_t i = 0; i < h->count; i++) {
    if (s[i] == page) return true;
  }
  return false;
}

void BadPageTable::clear() {
  LockGuard<SpinLock> g(mu_);
  hdr()->count = 0;
  seal_and_persist();
}

uint64_t BadPageTable::count() const {
  LockGuard<SpinLock> g(mu_);
  return hdr()->count;
}

std::vector<uint64_t> BadPageTable::pages() const {
  LockGuard<SpinLock> g(mu_);
  const uint64_t* s = slots();
  return std::vector<uint64_t>(s, s + hdr()->count);
}

}  // namespace dstore::fsmeta
