#include "index/journal.h"

#include <algorithm>
#include <csignal>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "util/bytes.h"
#include "util/failpoint.h"

namespace rdfc {
namespace index {

namespace {

constexpr char kJournalMagic[8] = {'R', 'D', 'F', 'C', 'W', 'J', '0', '1'};
/// magic + u64 base_sequence + u64 checksum.
constexpr std::uint64_t kHeaderBytes = 8 + 8 + 8;
/// u32 payload_len + u64 payload checksum.
constexpr std::uint64_t kRecordPrefixBytes = 4 + 8;
/// u64 sequence + u64 version + u32 num_ops.
constexpr std::uint64_t kMinPayloadBytes = 8 + 8 + 4;

/// The 24-byte file header for `base_sequence`.
std::string HeaderBytes(std::uint64_t base_sequence) {
  std::string header;
  util::ByteWriter w(&header);
  w.Raw(kJournalMagic, sizeof(kJournalMagic));
  w.U64(base_sequence);
  w.U64(util::Fnv1a(header));
  return header;
}

void EncodeTerm(util::ByteWriter* w, const rdf::TermDictionary& dict,
                rdf::TermId id) {
  w->U8(static_cast<std::uint8_t>(dict.kind(id)));
  w->Str(dict.lexical(id));
}

bool DecodeTerm(util::ByteReader* r, rdf::TermDictionary* dict,
                rdf::TermId* out) {
  std::uint8_t kind = 0;
  std::string_view lexical;
  if (!r->U8(&kind) || kind > 3 || !r->Str(&lexical)) return false;
  *out = dict->Intern(static_cast<rdf::TermKind>(kind), lexical);
  return true;
}

/// Parses one payload into a batch, interning add-op terms.  Returns false
/// on any structural violation (the record is then treated as corrupt).
bool DecodeBatch(std::string_view payload, rdf::TermDictionary* dict,
                 JournalBatch* batch) {
  util::ByteReader r(payload);
  std::uint32_t num_ops = 0;
  if (!r.U64(&batch->sequence) || !r.U64(&batch->version) || !r.U32(&num_ops)) {
    return false;
  }
  // Each op takes at least kind + view_id bytes; a count the payload cannot
  // hold is corruption — reject before sizing the vector by it.
  if (static_cast<std::uint64_t>(num_ops) * 9 > r.remaining()) return false;
  batch->ops.reserve(num_ops);
  for (std::uint32_t i = 0; i < num_ops; ++i) {
    JournalOp op;
    std::uint8_t kind = 0;
    if (!r.U8(&kind) || !r.U64(&op.view_id)) return false;
    if (kind != static_cast<std::uint8_t>(JournalOp::Kind::kAdd) &&
        kind != static_cast<std::uint8_t>(JournalOp::Kind::kRemove)) {
      return false;
    }
    op.kind = static_cast<JournalOp::Kind>(kind);
    if (op.kind == JournalOp::Kind::kAdd) {
      std::uint32_t num_triples = 0;
      if (!r.U32(&num_triples)) return false;
      if (static_cast<std::uint64_t>(num_triples) * 18 > r.remaining()) {
        return false;
      }
      for (std::uint32_t t = 0; t < num_triples; ++t) {
        rdf::TermId s = rdf::kNullTerm;
        rdf::TermId p = rdf::kNullTerm;
        rdf::TermId o = rdf::kNullTerm;
        if (!DecodeTerm(&r, dict, &s) || !DecodeTerm(&r, dict, &p) ||
            !DecodeTerm(&r, dict, &o)) {
          return false;
        }
        op.view.AddPattern(s, p, o);
      }
    }
    batch->ops.push_back(std::move(op));
  }
  return r.exhausted();
}

util::Status TruncateTo(std::FILE* file, std::uint64_t length) {
  if (std::fflush(file) != 0) {
    return util::Status::Internal("journal flush before truncate failed");
  }
#if defined(__unix__) || defined(__APPLE__)
  if (ftruncate(fileno(file), static_cast<off_t>(length)) != 0) {
    return util::Status::Internal("journal ftruncate failed");
  }
#else
  return util::Status::Unsupported("journal truncation requires POSIX");
#endif
  if (std::fseek(file, static_cast<long>(length), SEEK_SET) != 0) {
    return util::Status::Internal("journal seek after truncate failed");
  }
  return util::Status::OK();
}

}  // namespace

WriteAheadJournal::WriteAheadJournal(JournalOptions options, std::FILE* file)
    : options_(std::move(options)), file_(file) {
#if defined(__unix__) || defined(__APPLE__)
  fd_ = fileno(file_);
#endif
}

WriteAheadJournal::~WriteAheadJournal() {
  if (flusher_ != nullptr) {
    {
      util::MutexLock lock(&flush_mu_);
      flush_stop_ = true;
    }
    flush_cv_.NotifyAll();
    flusher_->Shutdown();
  }
  if (file_ == nullptr) return;
#if defined(__unix__) || defined(__APPLE__)
  // Best-effort group-commit drain: a clean shutdown should not leave the
  // tail of the window exposed to power loss.
  bool dirty = false;
  {
    util::MutexLock lock(&flush_mu_);
    dirty = flush_dirty_;
  }
  if (dirty && std::fflush(file_) == 0) (void)fsync(fd_);
#endif
  std::fclose(file_);
}

void WriteAheadJournal::StartFlusher() {
  util::ThreadPool::Options pool_options;
  pool_options.num_threads = 1;
  pool_options.queue_capacity = 1;
  flusher_ = std::make_unique<util::ThreadPool>(pool_options);
  const util::Status submitted =
      flusher_->TrySubmit([this](std::size_t) { FlusherLoop(); });
  // A fresh 1-slot pool cannot refuse; if it somehow does, group mode
  // degrades to syncing on Rebase()/Sync()/shutdown only — still within
  // kGroup's documented power-loss window semantics, never losing
  // kernel-flushed records to SIGKILL.
  if (!submitted.ok()) flusher_.reset();
}

void WriteAheadJournal::FlusherLoop() {
  for (;;) {
    {
      util::MutexLock lock(&flush_mu_);
      while (!flush_dirty_ && !flush_stop_) flush_cv_.Wait(&flush_mu_);
      if (flush_stop_) return;
      // Let the window fill so neighbouring appends share one barrier.
      flush_cv_.WaitFor(&flush_mu_, options_.group_window_micros);
      if (flush_stop_) return;
      flush_dirty_ = false;
    }
    // Off-lock: the barrier covers everything fflushed before this call;
    // an append racing past it re-marks the tail dirty for the next round.
#if defined(__unix__) || defined(__APPLE__)
    const bool synced = fsync(fd_) == 0;
#else
    const bool synced = true;
#endif
    util::MutexLock lock(&flush_mu_);
    if (synced) {
      ++group_fsyncs_;
    } else {
      flush_dirty_ = true;  // transient failure: retry next window
    }
  }
}

JournalStats WriteAheadJournal::stats_snapshot() const {
  JournalStats out = stats_;
  util::MutexLock lock(&flush_mu_);
  out.fsyncs += group_fsyncs_;
  return out;
}

util::Result<std::unique_ptr<WriteAheadJournal>> WriteAheadJournal::Open(
    const JournalOptions& options, rdf::TermDictionary* dict,
    const ReplayFn& replay, std::uint64_t watermark) {
  if (options.path.empty()) {
    return util::Status::InvalidArgument("journal path is empty");
  }
  // "a+b" creates the file when absent but pins every write to the end on
  // some libcs; reopen in "r+b" for positioned writes once it exists.
  std::FILE* probe = std::fopen(options.path.c_str(), "a+b");
  if (probe == nullptr) {
    return util::Status::InvalidArgument("cannot open journal: " +
                                         options.path);
  }
  std::fclose(probe);
  std::FILE* file = std::fopen(options.path.c_str(), "r+b");
  if (file == nullptr) {
    return util::Status::InvalidArgument("cannot reopen journal: " +
                                         options.path);
  }
  std::unique_ptr<WriteAheadJournal> journal(
      new WriteAheadJournal(options, file));  // NOLINT(raw-new): private ctor
  RDFC_RETURN_NOT_OK(journal->ReplayAndRecover(dict, replay, watermark));
  if (!journal->stats_.degraded &&
      journal->stats_.last_sequence < watermark) {
    // The checkpoint covers more than the journal holds (a fresh journal, or
    // one reset by a corrupt header): continue its sequence past the
    // watermark, so replay after the next restart skips nothing it should
    // apply.
    RDFC_RETURN_NOT_OK(journal->Rebase(watermark));
  }
  if (options.fsync == JournalFsync::kGroup) journal->StartFlusher();
  return journal;
}

util::Status WriteAheadJournal::ReplayAndRecover(rdf::TermDictionary* dict,
                                                 const ReplayFn& replay,
                                                 std::uint64_t watermark) {
  if (std::fseek(file_, 0, SEEK_END) != 0) {
    return util::Status::Internal("journal seek failed: " + options_.path);
  }
  const long end = std::ftell(file_);
  const std::uint64_t size = end > 0 ? static_cast<std::uint64_t>(end) : 0;
  std::rewind(file_);

  // Header: absent (fresh file) or corrupt both reset to an empty journal
  // based at the watermark.  Headers are only ever replaced by an atomic
  // rename, so a corrupt one is media damage and the records behind it
  // cannot be trusted.
  // A header is valid exactly when it re-encodes to itself, which checks
  // the magic and the checksum.
  char header[kHeaderBytes] = {};
  const std::string_view header_bytes(header, kHeaderBytes);
  util::ByteReader header_reader(header_bytes.substr(sizeof(kJournalMagic)));
  std::uint64_t base_sequence = 0;
  const bool header_ok =
      size >= kHeaderBytes &&
      std::fread(header, 1, kHeaderBytes, file_) == kHeaderBytes &&
      header_reader.U64(&base_sequence) &&
      header_bytes == HeaderBytes(base_sequence);
  if (!header_ok) {
    stats_.truncated_bytes += size;
    stats_.last_sequence = watermark;
    return ReplaceFile(watermark, "");
  }
  base_sequence_ = base_sequence;
  stats_.last_sequence = base_sequence;

  // Record scan: each record must be fully present, checksum-clean, carry
  // the next sequence number, and — past the watermark — parse; the first
  // violation ends the journal there.  Records at or below the watermark are
  // already in the checkpoint's bases, so they are never decoded.
  std::uint64_t offset = kHeaderBytes;
  bool torn = false;
  while (offset < size) {
    const std::uint64_t remaining = size - offset;
    char prefix[kRecordPrefixBytes];
    if (remaining < kRecordPrefixBytes ||
        std::fread(prefix, 1, kRecordPrefixBytes, file_) !=
            kRecordPrefixBytes) {
      torn = true;
      break;
    }
    util::ByteReader prefix_reader(
        std::string_view(prefix, kRecordPrefixBytes));
    std::uint32_t payload_len = 0;
    std::uint64_t stored_sum = 0;
    if (!prefix_reader.U32(&payload_len) || !prefix_reader.U64(&stored_sum) ||
        payload_len < kMinPayloadBytes ||
        payload_len > remaining - kRecordPrefixBytes) {
      torn = true;
      break;
    }
    std::string payload(payload_len, '\0');
    if (std::fread(payload.data(), 1, payload_len, file_) != payload_len) {
      torn = true;
      break;
    }
    std::uint64_t sequence = 0;
    if (!util::ByteReader(payload).U64(&sequence) ||
        util::Fnv1a(payload) != stored_sum ||
        sequence != stats_.last_sequence + 1) {
      torn = true;
      break;
    }
    if (sequence <= watermark) {
      offset += kRecordPrefixBytes + payload_len;
      stats_.last_sequence = sequence;
      continue;
    }
    JournalBatch batch;
    if (!DecodeBatch(payload, dict, &batch)) {
      torn = true;
      break;
    }
    if (RDFC_FAILPOINT("journal.replay")) {
      // Simulated replay interruption (I/O error mid-recovery): stop WITHOUT
      // truncating — the unreplayed records are acknowledged data, so the
      // journal goes degraded (appends refused) and a clean re-open replays
      // everything.
      stats_.degraded = true;
      break;
    }
    RDFC_RETURN_NOT_OK(replay(batch));
    offset += kRecordPrefixBytes + payload_len;
    stats_.last_sequence = batch.sequence;
    ++stats_.records_replayed;
    stats_.ops_replayed += batch.ops.size();
  }

  end_offset_ = offset;
  if (torn && offset < size) {
    stats_.truncated_bytes += size - offset;
    RDFC_RETURN_NOT_OK(TruncateTo(file_, offset));
  } else if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0) {
    return util::Status::Internal("journal seek failed: " + options_.path);
  }
  return util::Status::OK();
}

util::Status WriteAheadJournal::Append(const JournalBatch& batch,
                                       const rdf::TermDictionary& dict) {
  if (stats_.degraded) {
    return util::Status::Internal(
        "journal is degraded (interrupted replay left unreplayed records); "
        "reopen to recover before appending");
  }
  if (batch.sequence != next_sequence()) {
    return util::Status::InvalidArgument("journal sequence gap");
  }
  if (RDFC_FAILPOINT("journal.append")) {
    return util::Status::Internal("failpoint journal.append");
  }

  std::string payload;
  util::ByteWriter w(&payload);
  w.U64(batch.sequence);
  w.U64(batch.version);
  w.U32(static_cast<std::uint32_t>(batch.ops.size()));
  for (const JournalOp& op : batch.ops) {
    w.U8(static_cast<std::uint8_t>(op.kind));
    w.U64(op.view_id);
    if (op.kind == JournalOp::Kind::kAdd) {
      w.U32(static_cast<std::uint32_t>(op.view.size()));
      for (const rdf::Triple& t : op.view.patterns()) {
        EncodeTerm(&w, dict, t.s);
        EncodeTerm(&w, dict, t.p);
        EncodeTerm(&w, dict, t.o);
      }
    }
  }
  std::string record;
  record.reserve(kRecordPrefixBytes + payload.size());
  util::ByteWriter record_writer(&record);
  record_writer.U32(static_cast<std::uint32_t>(payload.size()));
  record_writer.U64(util::Fnv1a(payload));
  record_writer.Raw(payload);

  const std::uint64_t pre = end_offset_;
  if (RDFC_FAILPOINT("journal.crash")) {
    // Simulated power-cut mid-append: flush a torn prefix to the kernel and
    // die like a SIGKILL'd process — recovery must truncate exactly here.
    const std::size_t torn = std::max<std::size_t>(1, record.size() / 2);
    (void)std::fwrite(record.data(), 1, torn, file_);
    (void)std::fflush(file_);
    (void)std::raise(SIGKILL);
    std::abort();  // unreachable on POSIX; keep the site noreturn anyway
  }
  if (std::fwrite(record.data(), 1, record.size(), file_) != record.size() ||
      std::fflush(file_) != 0) {
    RollBackTo(pre);
    return util::Status::Internal("journal append write failed: " +
                                  options_.path);
  }
  if (options_.fsync == JournalFsync::kAlways) {
    const util::Status st = Sync();
    if (!st.ok()) {
      RollBackTo(pre);
      return st;
    }
  } else if (options_.fsync == JournalFsync::kGroup) {
    // Group commit off the append path: the record is already in the
    // kernel (fflush above), so only power loss — never SIGKILL — can
    // reach it; the flusher pays the disk barrier within one window.
    util::MutexLock lock(&flush_mu_);
    if (!flush_dirty_) {
      flush_dirty_ = true;
      flush_cv_.NotifyAll();
    }
  }

  end_offset_ = pre + record.size();
  stats_.last_sequence = batch.sequence;
  ++stats_.records_appended;
  return util::Status::OK();
}

util::Status WriteAheadJournal::Sync() {
  if (RDFC_FAILPOINT("journal.fsync")) {
    return util::Status::Internal("failpoint journal.fsync");
  }
  if (std::fflush(file_) != 0) {
    return util::Status::Internal("journal flush failed: " + options_.path);
  }
#if defined(__unix__) || defined(__APPLE__)
  if (options_.fsync != JournalFsync::kOff && fsync(fd_) != 0) {
    return util::Status::Internal("journal fsync failed: " + options_.path);
  }
#endif
  ++stats_.fsyncs;
  util::MutexLock lock(&flush_mu_);
  flush_dirty_ = false;
  return util::Status::OK();
}

util::Status WriteAheadJournal::Rebase(std::uint64_t watermark) {
  if (stats_.degraded) {
    return util::Status::Internal(
        "refusing to rebase a degraded journal (unreplayed records)");
  }
  if (watermark <= base_sequence_) return util::Status::OK();
  // Walk past the covered records at the head; the rest is the kept tail.
  std::uint64_t offset = kHeaderBytes;
  bool ok = std::fflush(file_) == 0;
  for (std::uint64_t seq = base_sequence_;
       ok && seq < std::min(watermark, stats_.last_sequence); ++seq) {
    char len_bytes[4];
    std::uint32_t payload_len = 0;
    ok = std::fseek(file_, static_cast<long>(offset), SEEK_SET) == 0 &&
         std::fread(len_bytes, 1, sizeof(len_bytes), file_) ==
             sizeof(len_bytes) &&
         util::ByteReader(std::string_view(len_bytes, sizeof(len_bytes)))
             .U32(&payload_len);
    offset += kRecordPrefixBytes + payload_len;
  }
  ok = ok && offset <= end_offset_;
  std::string tail(ok ? end_offset_ - offset : 0, '\0');
  ok = ok && std::fseek(file_, static_cast<long>(offset), SEEK_SET) == 0 &&
       std::fread(tail.data(), 1, tail.size(), file_) == tail.size();
  if (!ok) {
    return util::Status::Internal("journal rebase read failed: " +
                                  options_.path);
  }
  const std::uint64_t last = std::max(stats_.last_sequence, watermark);
  RDFC_RETURN_NOT_OK(ReplaceFile(watermark, tail));
  stats_.last_sequence = last;
  return util::Status::OK();
}

util::Status WriteAheadJournal::ReplaceFile(std::uint64_t base_sequence,
                                            const std::string& records) {
#if defined(__unix__) || defined(__APPLE__)
  // The new file is complete and durable before the rename makes it the
  // journal, so a crash leaves either the old file or the new one.
  const std::string bytes = HeaderBytes(base_sequence) + records;
  const std::string tmp_path = options_.path + ".tmp";
  const int tmp_fd =
      ::open(tmp_path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (tmp_fd < 0) return util::Status::Internal("cannot create " + tmp_path);
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(tmp_fd, bytes.data() + written, bytes.size() - written);
    if (n <= 0) break;
    written += static_cast<std::size_t>(n);
  }
  if (written != bytes.size() || fsync(tmp_fd) != 0 ||
      std::rename(tmp_path.c_str(), options_.path.c_str()) != 0) {
    (void)::close(tmp_fd);
    (void)std::remove(tmp_path.c_str());
    return util::Status::Internal("journal rewrite failed: " + options_.path);
  }
  const std::size_t slash = options_.path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : options_.path.substr(0, slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY);
  if (dir_fd >= 0) {
    (void)fsync(dir_fd);  // best effort: make the rename itself durable
    (void)::close(dir_fd);
  }
  // Move the open handle onto the new file under the same fd number — the
  // group-commit flusher's only handle — then re-sync the FILE position.
  const bool switched = dup2(tmp_fd, fd_) == fd_;
  (void)::close(tmp_fd);
  if (!switched ||
      std::fseek(file_, static_cast<long>(bytes.size()), SEEK_SET) != 0) {
    stats_.degraded = true;  // the handle no longer names the journal file
    return util::Status::Internal("journal reopen failed: " + options_.path);
  }
  end_offset_ = bytes.size();
  base_sequence_ = base_sequence;
  util::MutexLock lock(&flush_mu_);
  flush_dirty_ = false;  // the whole new file was fsynced above
  return util::Status::OK();
#else
  return util::Status::Unsupported("journal rewrite requires POSIX");
#endif
}

void WriteAheadJournal::RollBackTo(std::uint64_t length) {
  // Best effort: a failed rollback leaves a record recovery would replay
  // although its publish was not acknowledged.  Its batch is still staged
  // and normally retried, so that is a liveness wart; it never loses an
  // acknowledged record.
  (void)TruncateTo(file_, length).ok();
}

}  // namespace index
}  // namespace rdfc
