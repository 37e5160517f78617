#include "cluster/membership.h"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "net/json_arena.h"

namespace lightor::cluster {

const char* BackendHealthName(BackendHealth health) {
  switch (health) {
    case BackendHealth::kUnknown:
      return "unknown";
    case BackendHealth::kHealthy:
      return "healthy";
    case BackendHealth::kDraining:
      return "draining";
    case BackendHealth::kDown:
      return "down";
  }
  return "unknown";
}

common::Result<std::pair<std::string, uint16_t>> SplitAddress(
    std::string_view address) {
  const size_t colon = address.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 == address.size()) {
    return common::Status::InvalidArgument(
        "membership: address must be host:port, got \"" +
        std::string(address) + "\"");
  }
  const std::string host(address.substr(0, colon));
  const std::string port_text(address.substr(colon + 1));
  char* end = nullptr;
  const long port = std::strtol(port_text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || port < 1 || port > 65535) {
    return common::Status::InvalidArgument(
        "membership: bad port in \"" + std::string(address) + "\"");
  }
  return std::make_pair(host, static_cast<uint16_t>(port));
}

common::Result<std::vector<std::string>> ParseMembership(
    std::string_view json) {
  LIGHTOR_ASSIGN_OR_RETURN(net::JsonDoc doc, net::JsonDoc::Parse(json));
  if (!doc.root().is_object()) {
    return common::Status::InvalidArgument(
        "membership: document must be a JSON object");
  }
  const net::JsonDoc::Ref backends = doc.root().Find("backends");
  if (!backends || !backends.is_array()) {
    return common::Status::InvalidArgument(
        "membership: missing array field \"backends\"");
  }
  std::vector<std::string> out;
  out.reserve(backends.size());
  for (net::JsonDoc::Ref entry = backends.first_child(); entry;
       entry = entry.next_sibling()) {
    if (!entry.is_string()) {
      return common::Status::InvalidArgument(
          "membership: backends entries must be \"host:port\" strings");
    }
    LIGHTOR_RETURN_IF_ERROR(SplitAddress(entry.AsString()).status());
    out.emplace_back(entry.AsString());
  }
  return out;
}

common::Result<std::vector<std::string>> LoadMembershipFile(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return common::Status::NotFound("membership: cannot open " + path);
  }
  std::ostringstream content;
  content << in.rdbuf();
  return ParseMembership(content.str());
}

Fleet::Fleet(size_t vnodes) : ring_(vnodes) {}

common::Status Fleet::Update(std::vector<std::string> backends) {
  for (const auto& address : backends) {
    LIGHTOR_RETURN_IF_ERROR(SplitAddress(address).status());
  }
  std::lock_guard<std::mutex> lock(mu_);
  ring_.SetMembers(std::move(backends));
  // Drop health entries of departed members; keep survivors' state so a
  // reload does not reset a known-down backend to unknown.
  std::unordered_map<std::string, BackendHealth> health;
  for (const auto& member : ring_.members()) {
    auto it = health_.find(member);
    health[member] =
        it != health_.end() ? it->second : BackendHealth::kUnknown;
  }
  health_ = std::move(health);
  ++version_;
  return common::Status::OK();
}

std::vector<std::string> Fleet::Members() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.members();
}

std::vector<BackendStatus> Fleet::Statuses() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<BackendStatus> out;
  out.reserve(ring_.members().size());
  for (const auto& member : ring_.members()) {
    auto it = health_.find(member);
    out.push_back({member, it != health_.end() ? it->second
                                               : BackendHealth::kUnknown});
  }
  return out;
}

size_t Fleet::NumMembers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.num_members();
}

uint64_t Fleet::Version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return version_;
}

common::Result<std::string> Fleet::Owner(std::string_view key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.Owner(key);
}

std::vector<std::string> Fleet::Candidates(std::string_view key,
                                           size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.Candidates(key, n);
}

BackendHealth Fleet::HealthOf(const std::string& address) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = health_.find(address);
  return it != health_.end() ? it->second : BackendHealth::kUnknown;
}

void Fleet::SetHealth(const std::string& address, BackendHealth health) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = health_.find(address);
  if (it != health_.end()) it->second = health;  // departed members: no-op
}

}  // namespace lightor::cluster
