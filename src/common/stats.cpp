#include "common/stats.hpp"

#include <algorithm>
#include <mutex>
#include <sstream>
#include <unordered_map>

namespace mcsim {

namespace {

// Heterogeneous string hashing so intern(string_view) never allocates
// for a name that is already in the table.
struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

struct InternTable {
  std::mutex mu;
  std::vector<std::string> names;
  std::unordered_map<std::string, std::uint32_t, StringHash, std::equal_to<>> ids;
};

InternTable& table() {
  static InternTable t;
  return t;
}

}  // namespace

StatId StatNames::intern(std::string_view name) {
  InternTable& t = table();
  std::lock_guard<std::mutex> lock(t.mu);
  auto it = t.ids.find(name);
  if (it != t.ids.end()) return StatId(it->second);
  std::uint32_t id = static_cast<std::uint32_t>(t.names.size());
  t.names.emplace_back(name);
  t.ids.emplace(t.names.back(), id);
  return StatId(id);
}

std::string StatNames::name(StatId id) {
  InternTable& t = table();
  std::lock_guard<std::mutex> lock(t.mu);
  return id.value() < t.names.size() ? t.names[id.value()] : std::string("<invalid>");
}

std::size_t StatNames::count() {
  InternTable& t = table();
  std::lock_guard<std::mutex> lock(t.mu);
  return t.names.size();
}

void StatSet::sample(StatId id, std::uint64_t value) {
  sample_slot(id).record(value);
}

const LogHistogram* StatSet::histogram(StatId id) const {
  for (const Sampled& s : samples_) {
    if (s.id == id.value()) return &s.hist;
  }
  return nullptr;
}

std::map<std::string, std::uint64_t> StatSet::counters() const {
  std::map<std::string, std::uint64_t> out;
  for (std::uint32_t i = 0; i < counters_.size(); ++i) {
    if (counters_[i].touched) out.emplace(StatNames::name(StatId(i)), counters_[i].value);
  }
  return out;
}

std::string StatSet::report() const {
  std::ostringstream os;
  for (const auto& [name, value] : counters()) {
    os << prefix_ << '.' << name << ' ' << value << '\n';
  }
  std::map<std::string, const LogHistogram*> samples;
  for (const Sampled& s : samples_) samples.emplace(StatNames::name(StatId(s.id)), &s.hist);
  for (const auto& [name, h] : samples) {
    os << prefix_ << '.' << name << ".mean " << h->mean() << " (n=" << h->count()
       << ", p50=" << h->p50() << ", p90=" << h->p90() << ", p99=" << h->p99()
       << ", max=" << h->max() << ")\n";
  }
  return os.str();
}

}  // namespace mcsim
