#include "core/shard.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "analysis/shard_classifier.h"
#include "common/budget.h"
#include "core/event_filter.h"
#include "xml/fd_source.h"

namespace gcx {

namespace {

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

// Mirrors the scanner's NameCharTable; being stricter than the scanner is
// fine (the planner then declines to shard and the single scan decides).
bool IsNameStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}

/// Zero-copy three-part source: synthetic entry wrapper, the document
/// slice (viewed, not copied), synthetic exit wrapper.
class SliceSource : public ByteSource {
 public:
  SliceSource(std::string prefix, std::string_view body, std::string suffix)
      : prefix_(std::move(prefix)), body_(body), suffix_(std::move(suffix)) {}

  ReadResult Read(char* buffer, size_t capacity) override {
    while (part_ < 3) {
      std::string_view current = part_ == 0   ? std::string_view(prefix_)
                                 : part_ == 1 ? body_
                                              : std::string_view(suffix_);
      if (pos_ < current.size()) {
        size_t n = std::min(capacity, current.size() - pos_);
        std::memcpy(buffer, current.data() + pos_, n);
        pos_ += n;
        return ReadResult::Ok(n);
      }
      ++part_;
      pos_ = 0;
    }
    return ReadResult::Eof();
  }

 private:
  std::string prefix_;
  std::string_view body_;
  std::string suffix_;
  int part_ = 0;
  size_t pos_ = 0;
};

}  // namespace

ShardPlan PlanShards(std::string_view doc, const ShardOptions& options) {
  ShardPlan plan;  // sharded == false until proven otherwise
  const size_t want = options.shards;
  if (want <= 1) return plan;
  if (doc.size() < want * std::max<size_t>(options.min_shard_bytes, 1)) {
    return plan;
  }

  struct Boundary {
    size_t pos = 0;
    int line = 1;
    std::vector<std::string> path;
  };
  std::vector<Boundary> boundaries;
  std::vector<std::string_view> stack;  // open element names, views into doc
  bool seen_root = false;

  size_t pos = 0;
  int line = 1;
  // Boundary k wants the first eligible element start at byte >= k/want of
  // the document, so slices come out roughly even.
  size_t next_target = 1;
  // Multiply before dividing: `size / want * k` truncates once per target,
  // which systematically shifts every target down and oversizes the final
  // slice on non-divisible sizes.
  auto target_pos = [&](size_t k) { return doc.size() * k / want; };

  // A candidate boundary is unsafe when re-opening its stack could complete
  // one of the avoid paths at a prefix — a shard-local query's match would
  // straddle the cut (see analysis/shard_classifier.h).
  auto boundary_safe = [&](const std::vector<std::string_view>& open) {
    for (const RelativePath& avoid : options.boundary_avoid_paths) {
      if (EntryPathCompletesPath(avoid, open)) return false;
    }
    return true;
  };

  // All consumption goes through bump_to so the line counter stays exact.
  auto bump_to = [&](size_t end) {
    for (; pos < end; ++pos) {
      if (doc[pos] == '\n') ++line;
    }
  };
  // Advances past `needle` (searching from `from`); false if absent.
  auto skip_past = [&](std::string_view needle, size_t from) {
    size_t at = doc.find(needle, from);
    if (at == std::string_view::npos) return false;
    bump_to(at + needle.size());
    return true;
  };

  while (pos < doc.size()) {
    char c = doc[pos];
    if (c != '<') {
      if (c == '\n') ++line;
      ++pos;
      continue;
    }
    if (pos + 1 >= doc.size()) return plan;  // dangling '<'
    char d = doc[pos + 1];
    if (d == '!') {
      if (doc.compare(pos, 4, "<!--") == 0) {
        if (!skip_past("-->", pos + 4)) return plan;
      } else if (doc.compare(pos, 9, "<![CDATA[") == 0) {
        if (!skip_past("]]>", pos + 9)) return plan;
      } else {
        // DOCTYPE: same bracket-depth rule as the scanner ('['/'<' nest,
        // ']' closes, '>' at depth zero ends the declaration).
        size_t p = pos + 2;
        int depth = 0;
        bool closed = false;
        for (; p < doc.size(); ++p) {
          char e = doc[p];
          if (e == '[' || e == '<') {
            ++depth;
          } else if (e == ']') {
            --depth;
          } else if (e == '>' && depth <= 0) {
            closed = true;
            ++p;
            break;
          }
        }
        if (!closed) return plan;
        bump_to(p);
      }
      continue;
    }
    if (d == '?') {
      if (!skip_past("?>", pos + 2)) return plan;
      continue;
    }
    if (d == '/') {
      size_t p = pos + 2;
      size_t name_begin = p;
      while (p < doc.size() && doc[p] != '>' && !IsSpace(doc[p])) ++p;
      std::string_view name = doc.substr(name_begin, p - name_begin);
      while (p < doc.size() && IsSpace(doc[p])) ++p;
      if (p >= doc.size() || doc[p] != '>') return plan;
      if (name.empty() || stack.empty() || stack.back() != name) {
        return plan;  // mismatched close: the scanner owns the error
      }
      stack.pop_back();
      bump_to(p + 1);
      continue;
    }
    // Element start. The candidate boundary is this '<': the element and
    // its whole subtree belong to the NEXT slice, so no token is split.
    if (!IsNameStart(d)) return plan;
    if (stack.empty() && seen_root) return plan;  // second root
    if (!stack.empty() && stack.size() <= options.max_boundary_depth &&
        boundaries.size() + 1 < want && pos >= target_pos(next_target) &&
        boundary_safe(stack)) {
      Boundary boundary;
      boundary.pos = pos;
      boundary.line = line;
      boundary.path.assign(stack.begin(), stack.end());
      boundaries.push_back(std::move(boundary));
      while (next_target < want && target_pos(next_target) <= pos) {
        ++next_target;
      }
    }
    size_t p = pos + 1;
    size_t name_begin = p;
    while (p < doc.size() && !IsSpace(doc[p]) && doc[p] != '>' &&
           doc[p] != '/') {
      ++p;
    }
    std::string_view name = doc.substr(name_begin, p - name_begin);
    if (name.empty()) return plan;
    bool empty_element = false;
    bool closed = false;
    while (p < doc.size()) {
      char e = doc[p];
      if (e == '>') {
        closed = true;
        ++p;
        break;
      }
      if (e == '/') {
        if (p + 1 < doc.size() && doc[p + 1] == '>') {
          empty_element = true;
          closed = true;
          p += 2;
          break;
        }
        return plan;  // stray '/': the scanner owns the error
      }
      if (e == '"' || e == '\'') {
        size_t quote_end = doc.find(e, p + 1);
        if (quote_end == std::string_view::npos) return plan;
        p = quote_end + 1;
        continue;
      }
      ++p;
    }
    if (!closed) return plan;
    seen_root = true;
    if (!empty_element) stack.push_back(name);
    bump_to(p);
  }

  if (!stack.empty() || !seen_root) return plan;  // unbalanced / no root
  if (boundaries.empty()) return plan;            // nowhere to split

  plan.slices.reserve(boundaries.size() + 1);
  for (size_t i = 0; i <= boundaries.size(); ++i) {
    ShardSlice slice;
    slice.begin = i == 0 ? 0 : boundaries[i - 1].pos;
    slice.end = i == boundaries.size() ? doc.size() : boundaries[i].pos;
    slice.start_line = i == 0 ? 1 : boundaries[i - 1].line;
    if (i > 0) slice.entry_path = boundaries[i - 1].path;
    if (i < boundaries.size()) slice.exit_path = boundaries[i].path;
    plan.slices.push_back(std::move(slice));
  }
  plan.sharded = true;
  return plan;
}

void ScanShard(std::string_view doc, const ShardSlice& slice,
               const ScannerOptions& scanner_options,
               const std::vector<MergedDfaInput>& dfa_inputs,
               SymbolTable* tags, const ShardOptions& options,
               ShardScanResult* result, size_t shard_index,
               ShardAbort* abort, RunGovernor* governor) {
  // Synthetic wrappers: attribute-free tags, so each contributes exactly
  // one scanner event in either attribute mode, and no newlines, so the
  // slice's line numbers stay document-accurate.
  std::string prefix;
  for (const std::string& name : slice.entry_path) {
    prefix += '<';
    prefix += name;
    prefix += '>';
  }
  std::string suffix;
  for (auto it = slice.exit_path.rbegin(); it != slice.exit_path.rend();
       ++it) {
    suffix += "</";
    suffix += *it;
    suffix += '>';
  }
  std::string_view body = doc.substr(slice.begin, slice.end - slice.begin);

  std::unique_ptr<ByteSource> source;
  if (options.wrap_source) {
    std::string composite;
    composite.reserve(prefix.size() + body.size() + suffix.size());
    composite += prefix;
    composite.append(body.data(), body.size());
    composite += suffix;
    source = options.wrap_source(std::move(composite));
  } else {
    source = std::make_unique<SliceSource>(std::move(prefix), body,
                                           std::move(suffix));
  }

  ScannerOptions scan_options = scanner_options;
  scan_options.start_line = slice.start_line;
  XmlScanner scanner(std::move(source), scan_options, tags);
  // Private DFA per shard: Transition memoizes product states in place.
  MergedDfa dfa(dfa_inputs, tags);
  ProjectedEventFilter filter(&dfa);

  result->log.set_governor(governor);
  // The log end before each of the last exit_path.size() + 1 scanner
  // events (a ring indexed by scanner ordinal): once the scan ends, the
  // oldest slot is the log end before the first exit wrapper event.
  std::vector<uint64_t> tail_ends(slice.exit_path.size() + 1);
  uint64_t scanned = 0;
  uint64_t stall_spins = 0;
  // A governor trip here fails this shard AND pulses the shared cancel
  // token, so every sibling's next checkpoint observes the same canonical
  // reason — the in-order sweep then reports one deterministic error.
  auto fail = [&](Status status) {
    result->status = std::move(status);
    if (abort != nullptr) abort->Fail(shard_index);
  };
  while (true) {
    if (abort != nullptr && abort->ShouldAbort(shard_index)) {
      result->status =
          IoError("shard scan cancelled after an earlier shard failed");
      break;
    }
    if (governor != nullptr) {
      Status check = governor->Check();
      if (!check.ok()) {
        fail(std::move(check));
        break;
      }
    }
    XmlEvent event;
    Status next = scanner.Next(&event);
    if (IsWouldBlock(next)) {
      int fd = scanner.ReadyFd();
      if (fd >= 0) {
        // Bounded wait so an abort (or a deadline armed on the governor)
        // signalled meanwhile is still noticed.
        WaitReadable(fd, governor != nullptr ? governor->BoundedWaitMs(20)
                                             : 20);
      } else {
        // Non-pollable source: WaitReadable(-1, ...) has no fd to poll, so
        // back off here — yield while the stall looks transient, then
        // sleep so a long stall doesn't monopolize a core.
        if (++stall_spins <= 64) {
          std::this_thread::yield();
        } else {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
      if (governor != nullptr) {
        // The wait may have ended on the deadline, not on data.
        Status check = governor->Check(/*force_clock=*/true);
        if (!check.ok()) {
          fail(std::move(check));
          break;
        }
      }
      continue;
    }
    stall_spins = 0;
    if (!next.ok()) {
      fail(std::move(next));
      break;
    }
    const uint64_t index = scanned++;
    if (index == slice.entry_path.size()) {
      result->body_begin = result->log.end();
    }
    tail_ends[index % tail_ends.size()] = result->log.end();
    Result<ProjectedEventFilter::Action> action = filter.Apply(event);
    if (!action.ok()) {
      fail(action.status());
      break;
    }
    if (*action == ProjectedEventFilter::Action::kSkip) continue;
    if (event.kind == XmlEvent::Kind::kEndOfDocument) {
      GCX_CHECK(scanned >= tail_ends.size());
      result->body_end = tail_ends[scanned % tail_ends.size()];
      break;
    }
    // Synthetic wrapper events that survive the filter are logged too:
    // the log then forms a balanced, correctly nested stream on its own,
    // which is exactly what worker-side evaluation replays. The merge path
    // replays only [body_begin, body_end).
    Status appended = result->log.Append(event);
    if (!appended.ok()) {
      fail(std::move(appended));
      break;
    }
  }

  result->scanner_events = scanned;
  result->events_skipped = filter.events_skipped();
  result->subtrees_skipped = filter.subtrees_skipped();
  result->bytes_scanned = slice.end - slice.begin;
  result->dfa_states = dfa.num_states();
}

}  // namespace gcx
