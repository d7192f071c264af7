// The replay log: a projected event stream kept for evaluators that
// replay it after (or behind) the scan that produced it.
//
// Events that survive the merged-DFA prefilter are stored as (kind, tag,
// arena view). The scanner's text views are valid only until its next
// event, so each payload is copied once into a ByteArena. Positions are
// global: a position keeps naming the same event when the front is
// trimmed. The shared scan of a batch (core/multi_engine.cc) trims as every
// query replays past an entry, so arena chunks recycle front-first; a shard
// worker's log (core/shard.h) is kept whole until the batch is done.
//
// Either way the log is one contributor to the run's governor: it charges
// its live arena bytes and buffered events to the arena and replay-event
// ledgers on every append and releases the charge on destruction.

#ifndef GCX_CORE_REPLAY_LOG_H_
#define GCX_CORE_REPLAY_LOG_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string_view>
#include <utility>

#include "common/arena.h"
#include "common/budget.h"
#include "common/status.h"
#include "common/symbol_table.h"
#include "xml/event.h"

namespace gcx {

class ReplayLog {
 public:
  ReplayLog() = default;
  ~ReplayLog() {
    if (governor_ != nullptr) {
      governor_->ReleaseArenaBytes(&arena_lease_);
      governor_->ReleaseReplayEvents(&replay_lease_);
    }
  }

  ReplayLog(const ReplayLog&) = delete;
  ReplayLog& operator=(const ReplayLog&) = delete;

  /// Charges the log to `governor`'s ledgers from the next append on.
  /// Null (the default) governs nothing.
  void set_governor(RunGovernor* governor) { governor_ = governor; }

  /// Appends `event`, copying its text into the arena. Fails with the
  /// run's typed resource error when an armed ArenaFaultInjector fails the
  /// arena allocation (first-wins through the governor, so every worker
  /// reports the same status) or when the new level trips a ledger.
  Status Append(const XmlEvent& event) {
    Entry entry;
    entry.kind = event.kind;
    entry.tag = event.tag;
    if (!arena_.AppendChecked(event.text, &entry.text, &entry.chunk)) {
      Status failed = ResourceExhaustedError(
          "replay arena allocation failed (injected fault)");
      return governor_ != nullptr ? governor_->TripExternal(std::move(failed))
                                  : failed;
    }
    entries_.push_back(entry);
    peak_events_ = std::max<uint64_t>(peak_events_, entries_.size());
    if (governor_ != nullptr) {
      GCX_RETURN_IF_ERROR(
          governor_->UpdateArenaBytes(&arena_lease_, arena_.stats().bytes_live));
      GCX_RETURN_IF_ERROR(
          governor_->UpdateReplayEvents(&replay_lease_, entries_.size()));
    }
    return Status::Ok();
  }

  /// Global position of the first retained entry, and one past the last
  /// (= the number of events ever appended).
  uint64_t begin() const { return base_; }
  uint64_t end() const { return base_ + entries_.size(); }

  /// The entry at `position` (begin() <= position < end()) as an event.
  /// Its text views the arena until the entry is trimmed; `tags` stays
  /// null, since replay consumers work on the TagId.
  XmlEvent At(uint64_t position) const {
    const Entry& entry = entries_[static_cast<size_t>(position - base_)];
    XmlEvent event;
    event.kind = entry.kind;
    event.tag = entry.tag;
    event.text = entry.text;
    return event;
  }

  /// Drops every entry before `position` and releases its text.
  void TrimTo(uint64_t position) {
    while (base_ < position && !entries_.empty()) {
      arena_.Release(entries_.front().chunk, entries_.front().text.size());
      entries_.pop_front();
      ++base_;
    }
    if (governor_ != nullptr) {
      // A shrinking contribution can never newly trip a ledger; the
      // statuses are discarded so trimming stays infallible.
      (void)governor_->UpdateArenaBytes(&arena_lease_,
                                        arena_.stats().bytes_live);
      (void)governor_->UpdateReplayEvents(&replay_lease_, entries_.size());
    }
  }

  /// High-water mark of retained entries.
  uint64_t peak_events() const { return peak_events_; }
  /// High-water mark of live arena bytes.
  uint64_t arena_peak_bytes() const { return arena_.stats().bytes_peak; }

 private:
  struct Entry {
    XmlEvent::Kind kind = XmlEvent::Kind::kEndOfDocument;
    TagId tag = kInvalidTag;
    std::string_view text;
    uint32_t chunk = ByteArena::kNullChunk;
  };

  ByteArena arena_;
  std::deque<Entry> entries_;
  uint64_t base_ = 0;  ///< global position of entries_.front()
  uint64_t peak_events_ = 0;
  RunGovernor* governor_ = nullptr;
  uint64_t arena_lease_ = 0;   ///< ledger cursor: live arena bytes
  uint64_t replay_lease_ = 0;  ///< ledger cursor: retained entries
};

}  // namespace gcx

#endif  // GCX_CORE_REPLAY_LOG_H_
