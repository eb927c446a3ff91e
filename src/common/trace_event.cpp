#include "common/trace_event.hpp"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <unordered_map>

namespace mcsim {

namespace {

struct NameTable {
  std::mutex mu;
  std::vector<std::string> names;
  std::unordered_map<std::string, std::uint16_t> ids;
};

NameTable& names() {
  static NameTable t;
  return t;
}

}  // namespace

static_assert(sizeof(TraceEventSink::Event) == 40, "keep a recorded event small");

TraceEventSink::NameId TraceEventSink::name_id(std::string_view name) {
  NameTable& t = names();
  std::lock_guard<std::mutex> lock(t.mu);
  auto it = t.ids.find(std::string(name));
  if (it != t.ids.end()) return it->second;
  NameId id = static_cast<NameId>(t.names.size());
  t.names.emplace_back(name);
  t.ids.emplace(t.names.back(), id);
  return id;
}

std::string TraceEventSink::name_of(NameId id) {
  NameTable& t = names();
  std::lock_guard<std::mutex> lock(t.mu);
  return id < t.names.size() ? t.names[id] : std::string("<invalid>");
}

void TraceEventSink::set_track(std::uint16_t track, std::string name) {
  if (track >= track_names_.size()) track_names_.resize(track + 1);
  track_names_[track] = std::move(name);
}

Json TraceEventSink::to_json() const {
  Json root = Json::object();
  Json arr = Json::array();

  // Track-name metadata first, one Chrome "thread_name" record per track.
  for (std::uint16_t t = 0; t < track_names_.size(); ++t) {
    if (track_names_[t].empty()) continue;
    Json m = Json::object();
    m.set("ph", Json::string("M"));
    m.set("name", Json::string("thread_name"));
    m.set("pid", Json::number(std::uint64_t{0}));
    m.set("tid", Json::number(static_cast<std::uint64_t>(t)));
    Json args = Json::object();
    args.set("name", Json::string(track_names_[t]));
    m.set("args", std::move(args));
    arr.push_back(std::move(m));
  }

  // Timeline events sorted by start: complete events are recorded when
  // the span CLOSES, so record order is end-time order; viewers and our
  // validation both want start-time order.
  std::vector<const Event*> sorted;
  sorted.reserve(events_.size());
  for (const Event& e : events_) sorted.push_back(&e);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Event* a, const Event* b) { return a->ts < b->ts; });

  for (const Event* e : sorted) {
    Json j = Json::object();
    j.set("name", Json::string(name_of(e->name)));
    j.set("cat", Json::string("sim"));
    if (e->phase == Phase::kComplete) {
      j.set("ph", Json::string("X"));
      j.set("ts", Json::number(static_cast<std::uint64_t>(e->ts)));
      j.set("dur", Json::number(static_cast<std::uint64_t>(e->dur())));
    } else if (e->phase == Phase::kCounter) {
      j.set("ph", Json::string("C"));
      j.set("ts", Json::number(static_cast<std::uint64_t>(e->ts)));
    } else {
      j.set("ph", Json::string("i"));
      j.set("ts", Json::number(static_cast<std::uint64_t>(e->ts)));
      j.set("s", Json::string("t"));  // instant scope: thread
    }
    if (e->key[0] != kNoArg || e->key[1] != kNoArg) {
      Json args = Json::object();
      for (int k = 0; k < 2; ++k) {
        if (e->key[k] != kNoArg) args.set(name_of(e->key[k]), Json::number(e->value[k]));
      }
      j.set("args", std::move(args));
    }
    j.set("pid", Json::number(std::uint64_t{0}));
    j.set("tid", Json::number(static_cast<std::uint64_t>(e->track)));
    arr.push_back(std::move(j));
  }

  root.set("traceEvents", std::move(arr));
  root.set("displayTimeUnit", Json::string("ms"));
  return root;
}

bool TraceEventSink::write(const std::string& path) const {
  std::string text = to_json().dump();
  text += '\n';
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  ok = (std::fclose(f) == 0) && ok;
  return ok;
}

}  // namespace mcsim
