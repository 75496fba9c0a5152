#include "stream/stream_analyzer.h"

#include <algorithm>
#include <cmath>

#include "detect/series_analysis.h"
#include "gretel/db_io.h"
#include "gretel/json_export.h"
#include "util/crc32.h"

namespace gretel::stream {

namespace {

// Newest checkpoint files retained on disk; older ones are pruned after
// each successful write.  Two means a checkpoint torn by a crash mid-write
// still leaves a previous complete one to fall back to (the loader falls
// back across corrupt files regardless).  A constant, not a knob.
constexpr std::size_t kCheckpointKeep = 2;

}  // namespace

std::vector<std::string> StreamOptions::validate() const {
  std::vector<std::string> errors;
  const auto bad = [&errors](const std::string& msg) {
    errors.push_back(msg);
  };
  if (!std::isfinite(tick_ms) || tick_ms <= 0.0)
    bad("tick_ms must be > 0 (a zero tick never advances)");
  if (source_ring == 0) bad("source_ring must be > 0");
  if (report_cap == 0) bad("report_cap must be > 0");
  if (!std::isfinite(max_report_delay_s) || max_report_delay_s < 0.0)
    bad("max_report_delay_s must be >= 0 (0 = off)");
  if (!std::isfinite(checkpoint_interval_s) || checkpoint_interval_s <= 0.0)
    bad("checkpoint_interval_s must be > 0");
  else if (std::isfinite(tick_ms) && tick_ms > 0.0 &&
           checkpoint_interval_s * 1000.0 < tick_ms)
    bad("checkpoint_interval_s must be at least one stream tick "
        "(a sub-tick cadence can never fire)");
  if (journal_segment_records == 0)
    bad("journal_segment_records must be > 0");
  return errors;
}

std::size_t StateFootprint::approx_bytes() const {
  // Element-size approximations for the fixed-stride stores; the source
  // ring adds its actual queued payload bytes on top of the record shells.
  std::size_t total = source_ring_bytes;
  total += source_ring_records * sizeof(net::WireRecord);
  total += window_capacity * (sizeof(wire::Event) + sizeof(std::uint64_t));
  // Flat tables are kept at most half full: two slots per entry.
  total += pending_requests * 64;  // 32-byte slot: key + SimTime + flag
  total += tap_connections * 64;   // 32-byte slot: conn + ApiId + time
  total += inflight_queue * 24;    // InflightEntry
  total += metric_points * 16;
  total += reports_retained * sizeof(StreamReport);
  return total;
}

core::Analyzer::Options StreamAnalyzer::prepare(
    core::Analyzer::Options options, StreamAnalyzer* self) {
  // The lambda outlives construction only inside analyzer_, a member of
  // *self, so capturing the not-yet-constructed `this` is safe: it is not
  // invoked until events flow.
  options.diagnosis_sink = [self](const core::Diagnosis& d) {
    self->on_diagnosis(d);
  };
  return options;
}

StreamAnalyzer::StreamAnalyzer(const core::FingerprintDb* db,
                               const wire::ApiCatalog* catalog,
                               const stack::Deployment* deployment,
                               core::Analyzer::Options options,
                               ReportSink sink, StreamOptions stream)
    : db_(db),
      catalog_(catalog),
      opts_(stream),
      tick_len_(util::SimDuration::nanos(std::max<std::int64_t>(
          1'000'000, static_cast<std::int64_t>(stream.tick_ms * 1e6)))),
      sink_(std::move(sink)),
      analyzer_(db, catalog, deployment, prepare(std::move(options), this)) {
  // Arm the bounded-state caps on the analyzer this stream owns.  The
  // in-flight cap only engages under sustained response loss, and metric
  // retention keeps twice the span Is_Anomalous's baseline reads before a
  // window, so it trims no baseline of a window that starts (pad
  // included) within 60 s of the newest sample.
  if (opts_.inflight_cap > 0) {
    analyzer_.latency().set_inflight_cap(
        std::max<std::size_t>(64, opts_.inflight_cap));
  }
  analyzer_.metrics().set_retention_seconds(2.0 * detect::kBaselineSeconds);
}

util::SimTime StreamAnalyzer::grid_floor(util::SimTime t) const {
  const auto step = tick_len_.count();
  return util::SimTime((t.nanos() / step) * step);
}

bool StreamAnalyzer::offer(const net::WireRecord& record) {
  if (!started_) {
    started_ = true;
    watermark_ = grid_floor(record.ts);
  }
  ++counters_.offered;

  const std::size_t cap = std::max<std::size_t>(1, opts_.source_ring);
  if (ring_.size() >= cap) {
    if (!gate_closed_) {
      gate_closed_ = true;
      ++counters_.shed_episodes;
    }
    ++counters_.shed;
    if (opts_.shed_policy == StreamShedPolicy::DropNewest) {
      // The freshest record is the loss; it has no queued successor yet,
      // so the annotation trails until the next admitted record.
      ++tail_losses_;
      return false;
    }
    // DropOldest: evict the queue head to stay current.  Its own
    // losses_before plus itself carry forward to the new head (or to the
    // tail marker if the ring empties — with cap 1 the new record then
    // takes the freed slot).
    const Slot& evicted = ring_.front();
    ring_bytes_ -= evicted.rec.bytes.size();
    const std::uint64_t carried = evicted.losses_before + 1;
    ring_.pop_front();
    if (!ring_.empty()) {
      ring_.front().losses_before += carried;
    } else {
      tail_losses_ += carried;
    }
  }

  // Copy-assign into a reused slot: its bytes and identifiers keep their
  // capacity, so a ring below its high-water depth allocates nothing.
  Slot& slot = ring_.claim_back();
  slot.rec = record;
  slot.losses_before = tail_losses_;
  tail_losses_ = 0;
  ring_bytes_ += record.bytes.size();
  return true;
}

std::size_t StreamAnalyzer::credits() const {
  if (gate_closed_) return 0;
  const std::size_t cap = std::max<std::size_t>(1, opts_.source_ring);
  return cap > ring_.size() ? cap - ring_.size() : 0;
}

void StreamAnalyzer::on_metric(wire::NodeId node, net::ResourceKind kind,
                               double t_seconds, double value) {
  ++counters_.metrics;
  analyzer_.metrics().record(node, kind, t_seconds, value);
}

void StreamAnalyzer::advance_to(util::SimTime watermark) {
  if (!started_) {
    started_ = true;
    watermark_ = grid_floor(watermark);
    return;
  }
  while (watermark_ + tick_len_ <= watermark) {
    watermark_ += tick_len_;
    run_tick();
  }
}

void StreamAnalyzer::drain_ring() {
  // The record is read in its slot; the slot is released after the
  // analyzer returns (the sink must not offer() from inside a drain — the
  // single-producer contract above).
  while (!ring_.empty()) {
    const Slot& slot = ring_.front();
    ring_bytes_ -= slot.rec.bytes.size();
    if (slot.losses_before > 0)
      analyzer_.record_ingest_loss(slot.losses_before);
    analyzer_.on_wire(slot.rec);
    ring_.pop_front();
    ++counters_.ingested;
  }
  // Hysteresis: the gate reopens only once the ring has drained to half
  // capacity, so a producer pacing on credits() sees one long closed
  // window instead of admit/shed flapping at the rim.  A full drain
  // trivially clears the bar.
  if (gate_closed_ &&
      ring_.size() <= std::max<std::size_t>(1, opts_.source_ring) / 2) {
    gate_closed_ = false;
  }
}

void StreamAnalyzer::run_tick() {
  ++counters_.ticks;
  drain_ring();
  analyzer_.tick(watermark_, opts_.max_report_delay_s);
  // Checkpoint cadence rides the tick grid: the ring just drained, so the
  // ledger reconciles with queued() == 0 inside the snapshot.  The first
  // tick anchors the cadence instead of checkpointing empty state.
  if (journal_) {
    if (!checkpoint_anchored_) {
      checkpoint_anchored_ = true;
      last_checkpoint_at_ = watermark_;
    } else if ((watermark_ - last_checkpoint_at_).to_seconds() >=
               opts_.checkpoint_interval_s) {
      checkpoint_now();
    }
  }
  const auto bytes = footprint().approx_bytes();
  peak_state_bytes_ = std::max(peak_state_bytes_, bytes);
}

void StreamAnalyzer::finish() {
  drain_ring();
  if (tail_losses_ > 0) {
    analyzer_.record_ingest_loss(tail_losses_);
    tail_losses_ = 0;
  }
  finishing_ = true;
  analyzer_.finish();
  // Clean shutdown leaves a checkpoint at the final state, so a restart
  // resumes instead of replaying the last interval.
  if (journal_) checkpoint_now();
  const auto bytes = footprint().approx_bytes();
  peak_state_bytes_ = std::max(peak_state_bytes_, bytes);
}

void StreamAnalyzer::on_diagnosis(const core::Diagnosis& d) {
  StreamReport report;
  report.diagnosis = d;
  report.tick = finishing_ ? 0 : counters_.ticks;
  report.emitted_at = watermark_;
  report.report_delay_ms =
      std::max(0.0, (watermark_ - d.fault.detected_at).to_millis());
  if (journal_) {
    // fsync-before-acknowledge: the report is durable before the sink or
    // the retained ring ever sees it.  A crash between append and sink
    // delivery loses nothing — recovery replays the journal tail.  A
    // record the journal did not acknowledge (an I/O failure) is not
    // emitted at all.
    const std::uint64_t seq =
        journal_->append(report.tick, report.emitted_at,
                         report.report_delay_ms,
                         core::to_json(d, *catalog_, *db_));
    if (journal_->next_seq() == seq) return;
  }
  ++counters_.reports;
  if (sink_) sink_(report);
  recent_.push_back(std::move(report));
  const std::size_t cap = std::max<std::size_t>(1, opts_.report_cap);
  while (recent_.size() > cap) {
    recent_.pop_front();
    ++counters_.reports_evicted;
  }
}

StateFootprint StreamAnalyzer::footprint() {
  StateFootprint fp;
  fp.source_ring_records = ring_.size();
  fp.source_ring_bytes = ring_bytes_;
  fp.window_capacity = 2 * analyzer_.config().alpha();
  const auto& latency = analyzer_.latency();
  fp.pending_requests = latency.pending();
  fp.tap_connections = analyzer_.tap_open_connections();
  fp.inflight_queue = latency.inflight_queue();
  fp.metric_points = analyzer_.metrics().retained_points();
  fp.reports_retained = recent_.size();
  return fp;
}

bool StreamAnalyzer::enable_durability(const std::string& dir) {
  return arm_durability(dir, nullptr);
}

bool StreamAnalyzer::arm_durability(const std::string& dir,
                                    std::size_t* truncated) {
  std::size_t dropped = 0;
  auto journal = persist::ReportJournal::open(
      dir, std::max<std::size_t>(1, opts_.journal_segment_records), &dropped);
  if (!journal) return false;
  journal_ = std::move(*journal);
  persist_dir_ = dir;
  // DB identity, stamped into every checkpoint: restore() refuses to graft
  // learned baselines onto a different fingerprint DB.
  db_catalog_hash_ = core::catalog_hash(*catalog_);
  db_content_crc_ = util::crc32(core::encode_fingerprint_db(*db_, *catalog_));
  // The one directory scan per arming: later writes prune from this list.
  // Checkpoints number past every file found (an older layout, a torn
  // write, another DB), since a write keeps the newest by seq and would
  // prune a lower-numbered file as soon as it was written.
  checkpoint_seqs_ = persist::list_checkpoints(dir);
  if (!checkpoint_seqs_.empty())
    checkpoint_seq_ = std::max(checkpoint_seq_, checkpoint_seqs_.front() + 1);
  if (truncated) *truncated = dropped;
  return true;
}

bool StreamAnalyzer::checkpoint_now() {
  if (!journal_) return false;
  // Quiesce: a mid-stream call (signal handler, manual snapshot) may land
  // with records queued — offered but not yet ingested.  Drain them so the
  // persisted ledger reconciles (offered == ingested + shed) and nothing
  // admitted before the snapshot is lost from accounting.
  drain_ring();
  persist::CheckpointMeta m;
  m.checkpoint_seq = checkpoint_seq_;
  m.watermark_ns = watermark_.nanos();
  m.journal_next_seq = journal_->next_seq();
  m.offered = counters_.offered;
  m.ingested = counters_.ingested;
  m.shed = counters_.shed;
  m.shed_episodes = counters_.shed_episodes;
  m.ticks = counters_.ticks;
  m.reports = counters_.reports;
  m.reports_evicted = counters_.reports_evicted;
  m.metrics = counters_.metrics;
  m.db_catalog_hash = db_catalog_hash_;
  m.db_content_crc = db_content_crc_;
  // One buffer, sized from the previous checkpoint: the analyzer state is
  // saved straight into the file image.  The buffer is not kept between
  // checkpoints.
  std::string data;
  data.reserve(last_checkpoint_bytes_ + last_checkpoint_bytes_ / 8);
  persist::encode_checkpoint(
      data, m, [this](std::string& out) { analyzer_.save_state(out); });
  if (!persist::write_checkpoint(persist_dir_, m.checkpoint_seq, data,
                                 checkpoint_seqs_, kCheckpointKeep))
    return false;
  last_checkpoint_bytes_ = data.size();
  ++checkpoint_seq_;
  last_checkpoint_at_ = watermark_;
  checkpoint_anchored_ = true;
  // Segments fully covered by this checkpoint will never be replayed.
  journal_->purge_below(m.journal_next_seq);
  return true;
}

std::unique_ptr<StreamAnalyzer> StreamAnalyzer::restore(
    const core::FingerprintDb* db, const wire::ApiCatalog* catalog,
    const stack::Deployment* deployment, core::Analyzer::Options options,
    const std::string& dir, ReportSink sink, RecoveryInfo* info,
    StreamOptions stream) {
  RecoveryInfo local;
  RecoveryInfo& ri = info ? *info : local;
  ri = RecoveryInfo{};

  // A freshly constructed analyzer is the cold-start state.
  const auto fresh = [&] {
    return std::unique_ptr<StreamAnalyzer>(
        new StreamAnalyzer(db, catalog, deployment, options, sink, stream));
  };
  auto sa = fresh();

  // Opening the journal first truncates the torn tail (crash-mid-append
  // artifact) before anything reads it back.
  if (!sa->arm_durability(dir, &ri.journal_records_truncated)) return nullptr;

  std::uint64_t replay_from = 0;
  auto ckp = persist::load_newest_checkpoint(dir, sa->checkpoint_seqs_,
                                             &ri.corrupt_checkpoints_skipped);
  if (ckp) {
    if (ckp->meta.db_catalog_hash != sa->db_catalog_hash_ ||
        ckp->meta.db_content_crc != sa->db_content_crc_) {
      // Fingerprint DB hot-swapped or retrained between checkpoint and
      // restart: the learned baselines cold-start rather than grafting
      // onto mismatched APIs.  Journaled reports stay trusted — they were
      // emitted against the DB that was live at the time.
      ri.db_mismatch = true;
    } else {
      std::string_view state(ckp->analyzer_state);
      if (sa->analyzer_.load_state(state) && state.empty()) {
        const persist::CheckpointMeta& m = ckp->meta;
        sa->counters_.offered = m.offered;
        sa->counters_.ingested = m.ingested;
        sa->counters_.shed = m.shed;
        sa->counters_.shed_episodes = m.shed_episodes;
        sa->counters_.ticks = m.ticks;
        sa->counters_.reports = m.reports;
        sa->counters_.reports_evicted = m.reports_evicted;
        sa->counters_.metrics = m.metrics;
        // The checkpoint was written at a tick boundary, so the restored
        // watermark sits on the tick grid and advance_to() resumes the
        // same cadence.
        sa->watermark_ = util::SimTime(m.watermark_ns);
        sa->started_ = true;
        sa->checkpoint_seq_ = m.checkpoint_seq + 1;
        sa->last_checkpoint_at_ = sa->watermark_;
        sa->checkpoint_anchored_ = true;
        replay_from = m.journal_next_seq;
        ri.recovered = true;
        ri.checkpoint_seq = m.checkpoint_seq;
        ri.checkpoint_tick = m.ticks;
      } else {
        // Both bodies passed CRC but the analyzer blob would not decode
        // or left bytes over: count it with the corrupt skips and
        // cold-start.  load_state may have applied some state before it
        // stopped, so the partly loaded analyzer is discarded for a fresh
        // one (its journal closed before the reopen).
        ++ri.corrupt_checkpoints_skipped;
        sa.reset();
        sa = fresh();
        if (!sa->arm_durability(dir, nullptr)) return nullptr;
      }
    }
  }

  // Replay the durable report tail (everything journaled after the
  // checkpoint mark — or the whole journal on a cold start).  These were
  // delivered before the crash; they resume sequence numbering, they are
  // not re-delivered.
  ri.replayed = persist::ReportJournal::read_from(dir, replay_from);
  sa->counters_.reports =
      std::max(sa->counters_.reports, sa->journal_->next_seq());
  return sa;
}

}  // namespace gretel::stream
