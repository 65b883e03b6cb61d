// Tenant keys: many namespaces share one store keyspace.
//
// Namespace `ns`'s key `k` is stored as "<ns>\x1f<k>". The separator \x1f
// (ASCII unit separator) may not appear in a namespace name, so two
// tenants' prefixes never collide. The server and the embedded C API both
// build keys here, so embedded and remote sessions see the same keyspace.
#pragma once

#include <string>
#include <string_view>

namespace dstore {

inline constexpr char kTenantSep = '\x1f';

inline bool valid_namespace_name(std::string_view name) {
  return !name.empty() && name.find(kTenantSep) == std::string_view::npos;
}

// One allocation: the served put/get path builds a key per request.
inline std::string tenant_key(std::string_view ns, std::string_view key) {
  std::string k;
  k.reserve(ns.size() + 1 + key.size());
  k.append(ns);
  k.push_back(kTenantSep);
  k.append(key);
  return k;
}

}  // namespace dstore
