// ingress::TenantDirectory — who owns which stream, and how much of the NI
// each owner may reserve.
//
// A tenant is a named share of the admission headroom plus a DWCS monitor
// scope: sessions SETUP against rtsp://ni/<tenant>/<media>, the front door
// resolves the first URI path segment here, charges the request against the
// tenant's link/CPU budget BEFORE global admission, and keys the violation
// monitor by (tenant scope, stream). One tenant exhausting its share gets
// per-tenant 453s while every other tenant's budget — and the global
// headroom they admit against — stays untouched: the paper's host-immunity
// claim restated as tenant immunity.
//
// Scope 0 is the default tenant: single-segment URIs ("rtsp://ni/stream")
// and unknown tenant names resolve there. It is the global pool: the
// AdmissionController alone bounds it, and a stream bound to it costs the
// directory no state. A server with no named tenants runs every SETUP
// through this same path with everything in scope 0.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dwcs/types.hpp"
#include "ingress/flow_table.hpp"

namespace nistream::ingress {

/// Fractions of the admission headroom (not of raw capacity) a tenant may
/// hold on each resource. The default tenant's is never checked.
struct TenantBudget {
  double link_share = 1.0;
  double cpu_share = 1.0;
};

class TenantDirectory {
 public:
  struct Tenant {
    std::string name;
    TenantBudget budget{};
    double link_used = 0;
    double cpu_used = 0;
    std::uint64_t admitted = 0;   // live reservations
    std::uint64_t rejected = 0;   // denied by THIS tenant's budget
  };

  explicit TenantDirectory(
      const std::vector<std::pair<std::string, TenantBudget>>& named = {}) {
    tenants_.push_back(Tenant{.name = "default"});
    for (const auto& [name, budget] : named) add_tenant(name, budget);
  }

  /// Register a named tenant; its id doubles as the monitor scope.
  TenantId add_tenant(std::string name, TenantBudget budget) {
    tenants_.push_back(Tenant{.name = std::move(name), .budget = budget});
    return static_cast<TenantId>(tenants_.size() - 1);
  }

  /// Name → tenant id; unknown or empty names land on the default tenant.
  [[nodiscard]] TenantId resolve(std::string_view name) const {
    if (!name.empty()) {
      for (std::size_t i = 1; i < tenants_.size(); ++i) {
        if (tenants_[i].name == name) return static_cast<TenantId>(i);
      }
    }
    return 0;
  }

  [[nodiscard]] std::size_t count() const { return tenants_.size(); }
  [[nodiscard]] const Tenant& tenant(TenantId id) const {
    return tenants_[id];
  }

  /// Would this request fit the tenant's budget? `headroom` is the global
  /// admission headroom the shares are fractions of. The default tenant has
  /// no budget of its own: the global controller decides its requests.
  [[nodiscard]] bool would_admit(TenantId id, double link_load,
                                 double cpu_load, double headroom) const {
    if (id == 0) return true;
    const Tenant& t = tenants_[id];
    return t.link_used + link_load <= t.budget.link_share * headroom &&
           t.cpu_used + cpu_load <= t.budget.cpu_share * headroom;
  }

  void reserve(TenantId id, double link_load, double cpu_load) {
    Tenant& t = tenants_[id];
    t.link_used += link_load;
    t.cpu_used += cpu_load;
    ++t.admitted;
  }

  void release(TenantId id, double link_load, double cpu_load) {
    Tenant& t = tenants_[id];
    t.link_used -= link_load;
    t.cpu_used -= cpu_load;
    if (t.link_used < 0) t.link_used = 0;
    if (t.cpu_used < 0) t.cpu_used = 0;
    --t.admitted;
  }

  void note_rejected(TenantId id) { ++tenants_[id].rejected; }

  /// Bind a scheduler stream to its owning tenant, so dispatch/drop
  /// observers can key the violation monitor by (tenant scope, stream).
  /// An unbound stream reads the default scope, so binding one to the
  /// default tenant stores nothing.
  void bind_stream(dwcs::StreamId stream, TenantId id) {
    if (stream >= stream_scope_.size()) {
      if (id == 0) return;
      stream_scope_.resize(static_cast<std::size_t>(stream) + 1, 0);
    }
    stream_scope_[stream] = id;
  }

  [[nodiscard]] TenantId scope_of(dwcs::StreamId stream) const {
    return stream < stream_scope_.size() ? stream_scope_[stream] : 0;
  }

 private:
  std::vector<Tenant> tenants_;
  std::vector<TenantId> stream_scope_;
};

/// First path segment of an RTSP URI when the path has at least two
/// non-empty segments ("rtsp://ni/acme/movie" → "acme"); empty view when the
/// URI names no tenant ("rtsp://ni/stream", the legacy single-segment form).
[[nodiscard]] inline std::string_view tenant_from_uri(std::string_view uri) {
  const std::size_t scheme = uri.find("://");
  std::string_view rest =
      scheme == std::string_view::npos ? uri : uri.substr(scheme + 3);
  const std::size_t slash = rest.find('/');
  if (slash == std::string_view::npos) return {};
  const std::string_view path = rest.substr(slash + 1);
  const std::size_t seg = path.find('/');
  if (seg == std::string_view::npos || seg == 0) return {};
  if (seg + 1 >= path.size()) return {};  // trailing slash, no second segment
  return path.substr(0, seg);
}

}  // namespace nistream::ingress
