#include "rck/scc/runtime.hpp"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <cxxabi.h>
#include <deque>
#include <map>
#include <optional>
#include <sstream>
#include <thread>
#include <tuple>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace rck::scc {

namespace {

/// Thrown into a parked fiber to unwind it when the simulation aborts.
/// Not derived from std::exception on purpose: program code that catches
/// (std::exception&) will not swallow it.
struct AbortSim {};

/// Thrown into a single fiber to unwind it when its core is killed by the
/// FaultPlan. Same non-std::exception rationale as AbortSim.
struct CrashUnwind {};

/// Framing bytes added to every payload for timing purposes (source rank,
/// length, tag words RCCE puts in the MPB).
constexpr std::uint64_t kMsgHeaderBytes = 16;

/// xorshift64* step for the chk schedule perturbation: hand-rolled so the
/// perturbed dispatch order is a pure function of the seed, independent of
/// any library's generator implementation.
std::uint64_t chk_shuffle_next(std::uint64_t& s) noexcept {
  s ^= s >> 12;
  s ^= s << 25;
  s ^= s >> 27;
  return s * 0x2545F4914F6CDD1DULL;
}

/// Each fiber's stack size: glibc's default for a new thread, so a program
/// gets the stack depth it would have on a thread of its own.
constexpr std::size_t kFiberStackBytes = std::size_t{8} << 20;

/// The Itanium C++ ABI's per-thread exception-handling globals (libstdc++'s
/// __cxa_eh_globals: the caught-exception stack and the uncaught count).
/// <cxxabi.h> leaves the struct incomplete; this mirrors its two words.
struct EhGlobals {
  void* caught = nullptr;
  unsigned int uncaught = 0;
};

/// Exchange the calling thread's exception-handling globals with `other`.
/// Fibers share their thread, so each one keeps its own copy while it is
/// switched out: a core parked inside a catch handler must not have its
/// exception popped (and freed) by another core's handler ending.
void swap_eh_globals(EhGlobals& other) noexcept {
  void* const g = abi::__cxa_get_globals();
  EhGlobals cur;
  std::memcpy(&cur, g, sizeof cur);
  std::memcpy(g, &other, sizeof other);
  other = cur;
}

/// One core's fiber: its saved context, its stack and the state it keeps
/// while switched out. The stack is kFiberStackBytes of MAP_NORESERVE memory
/// above a PROT_NONE guard page, so only touched pages count towards RSS and
/// an overflow faults instead of corrupting a neighbouring mapping. The
/// owner must unwind the fiber before destroying it.
class Fiber {
 public:
  Fiber() {
    guard_ = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    void* const p = mmap(nullptr, guard_ + kFiberStackBytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
    if (p == MAP_FAILED) throw SimError("run: cannot map a fiber stack");
    map_ = static_cast<std::byte*>(p);
    if (mprotect(map_, guard_, PROT_NONE) != 0) {
      munmap(map_, guard_ + kFiberStackBytes);
      throw SimError("run: cannot protect a fiber stack guard page");
    }
#if defined(__SANITIZE_THREAD__)
    tsan = __tsan_create_fiber(0);
#endif
  }

  ~Fiber() {
#if defined(__SANITIZE_THREAD__)
    __tsan_destroy_fiber(tsan);
#endif
#if defined(__SANITIZE_ADDRESS__)
    // Frames unwound by an exception can leave redzone poison behind; clear
    // it so a later mapping at this address starts clean.
    ASAN_UNPOISON_MEMORY_REGION(stack_lo(), kFiberStackBytes);
#endif
    munmap(map_, guard_ + kFiberStackBytes);
  }

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  void* stack_lo() const noexcept { return map_ + guard_; }

  ucontext_t ctx{};
  /// While switched out, the fiber's own exception-handling globals; while
  /// running, the scheduler's (see swap_eh_globals).
  EhGlobals eh;
#if defined(__SANITIZE_ADDRESS__)
  void* asan_fake_stack = nullptr;  // ASan's fake frames while switched out
#endif
#if defined(__SANITIZE_THREAD__)
  void* tsan = nullptr;  // TSan's shadow context for this fiber
#endif

 private:
  std::byte* map_ = nullptr;  // guard page, then the stack
  std::size_t guard_ = 0;
};

}  // namespace

struct Message {
  int src = -1;
  bio::Bytes payload;
  noc::SimTime arrival = 0;
};

struct CoreState {
  enum class Status { Ready, Running, Blocked, Done };

  int rank = -1;
  noc::SimTime vtime = 0;
  Status status = Status::Ready;

  // Wake condition while Blocked: wait_src >= 0 waits for that rank;
  // kWaitAny waits for any rank in wait_set; kWaitNone means blocked in a
  // barrier (woken explicitly by the releaser).
  static constexpr int kWaitNone = -2;
  static constexpr int kWaitAny = -1;
  int wait_src = kWaitNone;
  std::vector<int> wait_set;
  bool in_barrier = false;
  noc::SimTime blocked_since = 0;

  std::map<int, std::deque<Message>> inbox;  // by source rank
  std::size_t rr_cursor = 0;                 // wait_any fairness state
  double freq_scale_dynamic = 0.0;           // runtime DVFS override; 0 = config

  bool dead = false;            // killed by the FaultPlan; fiber must unwind
  bool timed_out = false;       // last blocking wait ended by its deadline
  std::uint64_t wait_epoch = 0; // bumped on every wake; invalidates stale timers

  // Model checking: true once the current dispatch quantum touched shared
  // simulation state (send, barrier, liveness read, timer arm, protocol
  // probe). Reset by dispatch(); read back when the quantum yields to
  // classify the segment for CoreTie commutation (see mc::Session::segment).
  bool mc_shared = false;

  CoreReport report;
  std::exception_ptr error;
  Fiber fiber;
};

struct SpmdRuntime::Impl {
  Impl(SpmdRuntime& rt, const RuntimeConfig& c)
      : runtime(rt), cfg(c), network(queue, c.chip.make_mesh(), c.net) {}

  SpmdRuntime& runtime;  // hands each fiber its CoreCtx
  RuntimeConfig cfg;
  noc::EventQueue queue;
  noc::Network network;

  std::vector<std::unique_ptr<CoreState>> cores;
  int nranks = 0;
  bool shutdown = false;
  bool used = false;

  int barrier_count = 0;
  std::uint64_t barrier_epoch = 0;
  noc::SimTime barrier_time = 0;

  // Fiber switching (see resume/suspend). `sched_ctx` is where a yielding
  // or finished fiber returns to: the context saved by the resume() call
  // that entered it. `current` names the fiber being entered, for
  // fiber_main's first run; `program` is run()'s program.
  ucontext_t sched_ctx{};
  CoreState* current = nullptr;
  const Program* program = nullptr;
  /// The runtime whose resume() last switched into a fiber on this thread,
  /// for fiber_main's first run: makecontext can pass an entry point only
  /// int arguments.
  static inline thread_local Impl* entering = nullptr;
#if defined(__SANITIZE_ADDRESS__)
  const void* sched_stack_lo = nullptr;  // the stack resume() runs on
  std::size_t sched_stack_size = 0;
#endif
#if defined(__SANITIZE_THREAD__)
  void* sched_tsan = nullptr;  // TSan's context of resume()'s caller
#endif

  // Observability (null unless cfg.obs is active). Shards follow the
  // single-writer discipline documented in rck/obs/obs.hpp: a core's fiber
  // writes its own shard; delivery/crash events write the affected core's
  // shard from the scheduler (events fire only while every fiber is
  // parked), and the network writes the trailing system shard.
  std::shared_ptr<obs::Recorder> rec;
  std::vector<std::uint64_t> mpb_bytes;  // queued inbox bytes per core

  /// One core activity span, held back until run() appends it to the core's
  /// shard (see record()).
  struct Activity {
    int rank = 0;
    obs::NameId name = 0;
    noc::SimTime start = 0;
    noc::SimTime end = 0;
  };
  std::vector<Activity> activity;

  /// Recording handle for core `rank`'s shard; empty when obs is off.
  obs::Handle oh(int rank) const noexcept {
    return rec ? obs::Handle(rec.get(), rank) : obs::Handle();
  }

  /// Sample core `rank`'s MPB occupancy (queued, not-yet-received bytes) at
  /// simulated time `ts`.
  void sample_mpb(int rank, noc::SimTime ts) {
    if (!rec) return;
    const obs::Handle h = oh(rank);
    h.sample(obs::Lane::Core, h.ids().n_mpb, ts,
             static_cast<std::int64_t>(mpb_bytes[static_cast<std::size_t>(rank)]),
             static_cast<std::uint64_t>(rank));
  }

  // Fault-injection state, built once in run() from cfg.faults.
  std::map<std::tuple<int, int, std::uint64_t>, FaultPlan::MessageFault::Kind>
      msg_faults;                      // (src, dst, nth) -> action
  std::vector<std::uint64_t> flow_sent;  // per (src, dst) message counters
  std::uint64_t dead_letters = 0;        // deliveries dropped at a dead core

  /// Pending crash-at-event-K triggers (cfg.faults.event_crashes), checked
  /// against queue.fired() after every event so a crash lands on a precise
  /// protocol step regardless of timing parameters.
  struct PendingEventCrash {
    int rank = -1;
    std::uint64_t after_events = 0;
    bool applied = false;
  };
  std::vector<PendingEventCrash> event_crashes;

  /// Fire every crash-at-event-K trigger whose threshold the queue has
  /// reached. Follow with reap_dead().
  void apply_event_crashes() {
    for (PendingEventCrash& ec : event_crashes) {
      if (ec.applied || queue.fired() < ec.after_events) continue;
      ec.applied = true;
      apply_crash(*cores[static_cast<std::size_t>(ec.rank)], queue.now());
    }
  }

  // Race detection (null unless cfg.chk is active). The scheduler runs one
  // fiber at a time, so every checker call happens with all other fibers
  // parked — the checker needs no locking of its own.
  std::shared_ptr<chk::Checker> chk;
  struct ChkSites {
    chk::SiteId send = 0, recv = 0, recv_timeout = 0, probe = 0, wait_any = 0,
                wait_any_timeout = 0;
  } chk_sites;
  std::uint64_t chk_rng = 0;  // schedule-perturbation state; 0 = off

  // Model checking (null unless cfg.mc is set; latched in run()). Like chk,
  // every session call happens with all other fibers parked.
  // Scratch vectors live here to keep the scheduler hot path allocation-free
  // across decisions: `tied` collects the ready cores tied at the minimum
  // virtual time for mc's CoreTie decisions and chk's schedule perturbation.
  mc::Session* mc = nullptr;
  std::vector<CoreState*> tied;
  std::vector<int> mc_ranks;
  std::vector<noc::EventQueue::TieRef> mc_ties;

  /// The current quantum of `st` touched shared simulation state: its
  /// CoreTie segment no longer commutes with anything.
  void mc_mark_shared(CoreState& st) noexcept {
    if (mc != nullptr) st.mc_shared = true;
  }

  /// Do all same-instant head events provably commute? True only when every
  /// tied event is a Delivery or Timer, each names a distinct target core,
  /// and no crash-at-event-K trigger is still pending (those key on the
  /// firing *count*, which makes same-instant order observable).
  bool mc_event_tie_independent() {
    for (const PendingEventCrash& ec : event_crashes)
      if (!ec.applied) return false;
    queue.tied(mc_ties);
    for (std::size_t i = 0; i < mc_ties.size(); ++i) {
      const noc::EventQueue::TieRef& e = mc_ties[i];
      if (e.target < 0) return false;
      if (e.cls != noc::EventClass::Delivery && e.cls != noc::EventClass::Timer)
        return false;
      for (std::size_t j = 0; j < i; ++j)
        if (mc_ties[j].target == e.target) return false;
    }
    return true;
  }

  /// Which of the Std core-op names (n_compute ... n_blocked) a span gets.
  using ActivityName = obs::NameId obs::Std::*;

  /// Note that core `rank` spent [start, end) on `kind` (obs only). The spans
  /// reach the core's shard after the run, in recording order, so no other
  /// record the core writes meanwhile is reordered around them.
  void record(int rank, ActivityName kind, noc::SimTime start, noc::SimTime end) {
    if (rec && end > start) activity.push_back({rank, rec->std_ids().*kind, start, end});
  }

  int router_of(int rank) const { return cfg.chip.router_of_core(rank); }

  void check_rank(int r, const char* what) const {
    if (r < 0 || r >= nranks)
      throw SimError(std::string(what) + ": rank out of range");
  }

  // ---- Fibers --------------------------------------------------------------
  // resume() runs on the scheduler and switches into a core's fiber;
  // suspend() runs on that fiber and switches back. The pair brackets every
  // switch with the exception-globals swap and, in sanitizer builds, the
  // ASan/TSan fiber annotations (without them ASan misreads an exception
  // thrown on a fiber stack as a stack-buffer-overflow).

  /// (Re)make `st`'s fiber so that its next resume() starts fiber_main at
  /// the top of its stack; a finished fiber returns to `sched_ctx`.
  void make_fiber(CoreState& st) {
    Fiber& f = st.fiber;
    if (getcontext(&f.ctx) != 0) throw SimError("run: getcontext failed");
    f.ctx.uc_stack.ss_sp = f.stack_lo();
    f.ctx.uc_stack.ss_size = kFiberStackBytes;
    f.ctx.uc_link = &sched_ctx;
    makecontext(&f.ctx, &fiber_main, 0);
    f.eh = EhGlobals{};
  }

  /// A fiber's entry point: run the program for the core being entered,
  /// then return through uc_link to the scheduler. TSan leaves it
  /// uninstrumented: its exit runs after the switch back to the
  /// scheduler's TSan context, which would pop a frame it never pushed.
  [[gnu::no_sanitize("thread")]] static void fiber_main() noexcept {
    Impl& im = *entering;
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(nullptr, &im.sched_stack_lo, &im.sched_stack_size);
#endif
    im.run_program(*im.current);
#if defined(__SANITIZE_THREAD__)
    __tsan_switch_to_fiber(im.sched_tsan, 0);
#endif
#if defined(__SANITIZE_ADDRESS__)
    // Leaving for good: a null save slot tells ASan to free the fake stack.
    __sanitizer_start_switch_fiber(nullptr, im.sched_stack_lo, im.sched_stack_size);
#endif
  }

  /// Run the program on `st` (unless the run was shut down or the core
  /// killed before it ever started) and mark the core Done.
  void run_program(CoreState& st) noexcept {
    if (!shutdown && !st.dead) {
      try {
        CoreCtx ctx(runtime, st);
        (*program)(ctx);
      } catch (const AbortSim&) {
        // unwound by shutdown; nothing to record
      } catch (const CrashUnwind&) {
        // this core was killed by the fault plan; its report says so
      } catch (...) {
        st.error = std::current_exception();
      }
    }
    st.status = CoreState::Status::Done;
    st.report.finish = st.vtime;
  }

  /// Switch from the scheduler into `st`'s fiber; returns once the fiber
  /// yields, blocks or finishes.
  void resume(CoreState& st) {
    Fiber& f = st.fiber;
    entering = this;
    current = &st;
    swap_eh_globals(f.eh);
#if defined(__SANITIZE_THREAD__)
    sched_tsan = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(f.tsan, 0);
#endif
#if defined(__SANITIZE_ADDRESS__)
    void* fake_stack = nullptr;
    __sanitizer_start_switch_fiber(&fake_stack, f.stack_lo(), kFiberStackBytes);
#endif
    swapcontext(&sched_ctx, &f.ctx);
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
    swap_eh_globals(f.eh);
  }

  /// Switch from `st`'s fiber back to the scheduler; returns once the
  /// scheduler resumes it.
  void suspend(CoreState& st) {
    Fiber& f = st.fiber;
#if defined(__SANITIZE_THREAD__)
    __tsan_switch_to_fiber(sched_tsan, 0);
#endif
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_start_switch_fiber(&f.asan_fake_stack, sched_stack_lo, sched_stack_size);
#endif
    swapcontext(&f.ctx, &sched_ctx);
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(f.asan_fake_stack, &sched_stack_lo, &sched_stack_size);
#endif
  }

  /// Park the calling core's fiber with the given status until the
  /// scheduler resumes it. Throws AbortSim on shutdown and CrashUnwind once
  /// this core has been killed by the fault plan — also without parking, so
  /// a fiber that is unwinding never switches out again.
  void yield(CoreState& st, CoreState::Status status) {
    if (st.dead) throw CrashUnwind{};  // rck-lint: allow(throw-taxonomy)
    if (shutdown) throw AbortSim{};  // rck-lint: allow(throw-taxonomy)
    st.status = status;
    if (status == CoreState::Status::Blocked) st.blocked_since = st.vtime;
    suspend(st);
    if (shutdown) throw AbortSim{};  // rck-lint: allow(throw-taxonomy)
    if (st.dead) throw CrashUnwind{};  // rck-lint: allow(throw-taxonomy)
  }

  /// Advance the core's clock (busy) and give the scheduler a chance to
  /// reorder.
  void advance(CoreState& st, noc::SimTime dt, ActivityName kind = &obs::Std::n_compute) {
    record(st.rank, kind, st.vtime, st.vtime + dt);
    st.vtime += dt;
    st.report.busy += dt;
    yield(st, CoreState::Status::Ready);
  }

  bool wants_message_from(const CoreState& st, int src) const {
    if (st.wait_src == src) return true;
    if (st.wait_src == CoreState::kWaitAny)
      return std::find(st.wait_set.begin(), st.wait_set.end(), src) != st.wait_set.end();
    return false;
  }

  /// Wake a blocked core at time `t` (>= its blocking time).
  void wake(CoreState& st, noc::SimTime t) {
    const noc::SimTime resume = std::max(st.vtime, t);
    record(st.rank, &obs::Std::n_blocked, st.blocked_since, resume);
    st.report.blocked += resume - st.blocked_since;
    st.vtime = resume;
    st.wait_src = CoreState::kWaitNone;
    st.wait_set.clear();
    ++st.wait_epoch;  // any pending wait deadline no longer applies
    st.status = CoreState::Status::Ready;
  }

  /// Schedule a deadline event for a core about to block in a timed wait.
  /// The event is a no-op unless the core is still parked in the same wait
  /// (epoch match) when the deadline arrives.
  void arm_timer(CoreState& st, noc::SimTime deadline) {
    // Arming inserts into the shared event queue; under mc the quantum stops
    // counting as a pure-local segment.
    mc_mark_shared(st);
    const std::uint64_t epoch = st.wait_epoch;
    queue.schedule_at(
        std::max(deadline, queue.now()),
        [this, &st, epoch, deadline] {
          if (st.wait_epoch == epoch && st.status == CoreState::Status::Blocked &&
              !st.dead) {
            st.timed_out = true;
            wake(st, deadline);
          }
        },
        st.rank, noc::EventClass::Timer);
  }

  /// Kill a core at simulated time `t` (fires from the event queue, on the
  /// scheduler). The fiber unwinds via CrashUnwind the next time it runs;
  /// reap_dead() below guarantees that happens before the scheduler makes
  /// any further decision.
  void apply_crash(CoreState& st, noc::SimTime t) {
    if (st.dead || st.status == CoreState::Status::Done) return;
    st.dead = true;
    st.report.crashed = true;
    st.report.crashed_at = t;
    if (rec) {
      // Crash events fire from the scheduler while every fiber is parked,
      // so the victim's shard is writable here.
      const obs::Handle h = oh(st.rank);
      h.add(h.ids().scc_crashes);
      h.instant(obs::Lane::Core, h.ids().n_crash, t,
                static_cast<std::uint64_t>(st.rank));
    }
    if (st.status == CoreState::Status::Blocked) {
      const noc::SimTime until = std::max(st.vtime, t);
      record(st.rank, &obs::Std::n_blocked, st.blocked_since, until);
      st.report.blocked += until - st.blocked_since;
    }
    st.vtime = std::max(st.vtime, t);
    st.in_barrier = false;  // an arrived-then-crashed core stays counted
    ++st.wait_epoch;
  }

  /// Resume every crashed-but-not-yet-unwound fiber so it unwinds to Done
  /// and the scheduler never reasons about half-dead cores. A dead fiber
  /// cannot park again (yield throws first), so one resume each suffices.
  void reap_dead() {
    for (auto& c : cores)
      if (c->dead && c->status != CoreState::Status::Done) resume(*c);
  }

  // ---- CoreCtx operations (run on the calling core's fiber) ---------------

  /// The single "is a frame pending from src?" primitive: every probe-style
  /// inbox check — probe(), the wait_any sweeps and the recv dequeue tests,
  /// timed or not — funnels through here, so the race checker observes one
  /// coherent RCCE flag_test stream (a successful test is the only event
  /// that orders a later slice read after the sender's write).
  bool probe_pending(CoreState& st, int src, chk::SiteId site) {
    const auto it = st.inbox.find(src);
    const bool pending = it != st.inbox.end() && !it->second.empty();
    if (chk) chk->flag_test(st.rank, src, st.rank, pending, st.vtime, site);
    return pending;
  }

  /// One round-robin polling sweep over `srcs` (the master's polling loop):
  /// returns the first rank with a pending frame — advancing the fairness
  /// cursor past it — or -1 when none is. Shared by the timed and untimed
  /// wait_any.
  int sweep_pending(CoreState& st, std::span<const int> srcs, chk::SiteId site) {
    for (std::size_t k = 0; k < srcs.size(); ++k) {
      const std::size_t idx = (st.rr_cursor + k) % srcs.size();
      if (probe_pending(st, srcs[idx], site)) {
        st.rr_cursor = (idx + 1) % srcs.size();
        return srcs[idx];
      }
    }
    return -1;
  }

  /// Dequeue the head-of-line frame from `src` (the caller just saw it
  /// pending via probe_pending) and account for it: receive counters, MPB
  /// occupancy sample, and the checker's slice read. `bytes` returns the
  /// framed size; the caller charges the endpoint occupancy itself (the
  /// timed and untimed receives charge differently).
  Message take_message(CoreState& st, int src, chk::SiteId site,
                       std::uint64_t& bytes) {
    std::deque<Message>& q = st.inbox[src];
    Message msg = std::move(q.front());
    q.pop_front();
    // Delivery order guarantees arrival <= vtime here; keep the max as a
    // belt-and-braces invariant.
    st.vtime = std::max(st.vtime, msg.arrival);
    bytes = msg.payload.size() + kMsgHeaderBytes;
    st.report.messages_received += 1;
    st.report.bytes_received += bytes;
    if (rec) {
      mpb_bytes[static_cast<std::size_t>(st.rank)] -= bytes;
      sample_mpb(st.rank, st.vtime);
    }
    if (chk) {
      const auto len = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(bytes, chk->slice_len()));
      chk->mpb_read(st.rank, st.rank, chk->slice_lo(src), len, st.vtime, site,
                    src, st.rank);
    }
    return msg;
  }

  void op_charge(CoreState& st, noc::SimTime dt) {
    advance(st, dt);
  }

  double freq_scale_of(int rank) const {
    const CoreState& st = *cores[static_cast<std::size_t>(rank)];
    if (st.freq_scale_dynamic > 0.0) return st.freq_scale_dynamic;
    const auto& scales = cfg.core_freq_scale;
    if (static_cast<std::size_t>(rank) < scales.size() && scales[static_cast<std::size_t>(rank)] > 0.0)
      return scales[static_cast<std::size_t>(rank)];
    return 1.0;
  }

  void op_set_freq(CoreState& st, double scale) {
    if (scale <= 0.0) throw SimError("set_freq_scale: scale must be positive");
    // SCC voltage/frequency transition: frequency switches are fast but a
    // voltage step stalls the tile for on the order of 100 us.
    advance(st, 100 * noc::kPsPerUs);
    st.freq_scale_dynamic = scale;
  }

  void op_charge_cycles(CoreState& st, std::uint64_t cycles) {
    st.report.compute_cycles += cycles;
    const noc::SimTime base = cfg.core_model.cycles_to_time(cycles);
    advance(st,
            static_cast<noc::SimTime>(static_cast<double>(base) / freq_scale_of(st.rank) +
                                      0.5));
  }

  void op_dram_read(CoreState& st, std::uint64_t bytes) {
    const noc::SimTime nominal =
        cfg.chip.dram_read_time(st.rank, bytes, cfg.net.hop_latency);
    noc::SimTime cost = nominal;
    for (const FaultPlan::Stall& s : cfg.faults.stalls) {
      if ((s.rank < 0 || s.rank == st.rank) && st.vtime >= s.from && st.vtime < s.until)
        cost = static_cast<noc::SimTime>(static_cast<double>(cost) * s.slowdown + 0.5);
    }
    if (rec) {
      const obs::Handle h = oh(st.rank);
      h.add(h.ids().scc_dram_reads);
      if (cost > nominal) {
        h.add(h.ids().scc_dram_stall_ps, cost - nominal);
        h.instant(obs::Lane::Core, h.ids().n_stall, st.vtime,
                  static_cast<std::uint64_t>(st.rank));
      }
    }
    advance(st, cost, &obs::Std::n_dram);
  }

  void op_send(CoreState& st, int dst, bio::Bytes payload) {
    check_rank(dst, "send");
    mc_mark_shared(st);  // mutates link state and schedules a delivery
    const std::uint64_t bytes = payload.size() + kMsgHeaderBytes;
    CoreState* d = cores[static_cast<std::size_t>(dst)].get();

    // Fault lookup for this flow's next message.
    const std::uint64_t nth =
        flow_sent[static_cast<std::size_t>(st.rank) * static_cast<std::size_t>(nranks) +
                  static_cast<std::size_t>(dst)]++;
    auto fault = msg_faults.find({st.rank, dst, nth});
    bool corrupt = false;
    auto disposition = noc::Delivery::Deliver;
    if (fault != msg_faults.end()) {
      if (fault->second == FaultPlan::MessageFault::Kind::Corrupt && !payload.empty())
        corrupt = true;
      else
        disposition = noc::Delivery::Drop;  // Drop, or Corrupt with nothing to flip
    }
    if (rec && fault != msg_faults.end()) {
      const obs::Handle h = oh(st.rank);
      h.add(h.ids().scc_msg_faults);
      h.instant(obs::Lane::Core,
                corrupt ? h.ids().n_msg_corrupt : h.ids().n_msg_drop, st.vtime,
                static_cast<std::uint64_t>(dst));
    }

    network.send(
        router_of(st.rank), router_of(dst), bytes, st.vtime,
        [this, d, src = st.rank, dst, bytes, corrupt,
         p = std::move(payload)](noc::SimTime arrival) mutable {
          if (d->dead) {  // dead cores receive nothing
            ++dead_letters;
            return;
          }
          if (corrupt) p[p.size() / 2] ^= std::byte{0xA5};
          d->inbox[src].push_back(Message{src, std::move(p), arrival});
          if (rec) {
            mpb_bytes[static_cast<std::size_t>(dst)] += bytes;
            sample_mpb(dst, arrival);
          }
          if (d->status == CoreState::Status::Blocked && wants_message_from(*d, src))
            wake(*d, arrival);
        },
        disposition, dst);
    st.report.messages_sent += 1;
    st.report.bytes_sent += bytes;
    if (chk) {
      // RCCE discipline: the sender writes the frame into its slice of the
      // receiver's MPB, then publishes it by setting the flow's flag. A
      // dropped/corrupted frame still performs both on real silicon — only
      // the receiver-side observation differs.
      const auto len = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(bytes, chk->slice_len()));
      chk->mpb_write(st.rank, dst, chk->slice_lo(st.rank), len, st.vtime,
                     chk_sites.send, st.rank, dst);
      chk->flag_set(st.rank, st.rank, dst, st.vtime, chk_sites.send);
    }
    advance(st, network.endpoint_occupancy(bytes), &obs::Std::n_send);
  }

  bio::Bytes op_recv(CoreState& st, int src) {
    check_rank(src, "recv");
    for (;;) {
      if (probe_pending(st, src, chk_sites.recv)) {
        std::uint64_t bytes = 0;
        Message msg = take_message(st, src, chk_sites.recv, bytes);
        advance(st, network.endpoint_occupancy(bytes), &obs::Std::n_recv);
        return std::move(msg.payload);
      }
      st.wait_src = src;
      yield(st, CoreState::Status::Blocked);
    }
  }

  /// One inbox polling sweep (an MPB flag read) is about to be charged.
  void count_poll(const CoreState& st) noexcept {
    if (!rec) return;
    const obs::Handle h = oh(st.rank);
    h.add(h.ids().scc_polls);
  }

  bool op_probe(CoreState& st, int src) {
    check_rank(src, "probe");
    count_poll(st);
    advance(st, cfg.poll_cost, &obs::Std::n_poll);
    return probe_pending(st, src, chk_sites.probe);
  }

  int op_wait_any(CoreState& st, std::span<const int> srcs) {
    if (srcs.empty()) throw SimError("wait_any: empty source set");
    for (int s : srcs) check_rank(s, "wait_any");
    for (;;) {
      count_poll(st);
      advance(st, cfg.poll_cost, &obs::Std::n_poll);  // one polling sweep
      const int s = sweep_pending(st, srcs, chk_sites.wait_any);
      if (s >= 0) return s;
      st.wait_src = CoreState::kWaitAny;
      st.wait_set.assign(srcs.begin(), srcs.end());
      yield(st, CoreState::Status::Blocked);
    }
  }

  /// True when the last blocking wait was ended by its deadline timer.
  static bool consume_timeout(CoreState& st) {
    if (!st.timed_out) return false;
    st.timed_out = false;
    return true;
  }

  std::optional<bio::Bytes> op_recv_timeout(CoreState& st, int src,
                                            noc::SimTime timeout) {
    check_rank(src, "recv_timeout");
    const noc::SimTime deadline = st.vtime + timeout;
    for (;;) {
      if (probe_pending(st, src, chk_sites.recv_timeout)) {
        std::uint64_t bytes = 0;
        Message msg = take_message(st, src, chk_sites.recv_timeout, bytes);
        advance(st, network.endpoint_occupancy(bytes), &obs::Std::n_recv);
        return std::move(msg.payload);
      }
      if (st.vtime >= deadline) return std::nullopt;
      st.wait_src = src;
      arm_timer(st, deadline);
      yield(st, CoreState::Status::Blocked);
      if (consume_timeout(st)) return std::nullopt;
    }
  }

  int op_wait_any_timeout(CoreState& st, std::span<const int> srcs,
                          noc::SimTime timeout) {
    if (srcs.empty()) throw SimError("wait_any_timeout: empty source set");
    for (int s : srcs) check_rank(s, "wait_any_timeout");
    const noc::SimTime deadline = st.vtime + timeout;
    for (;;) {
      count_poll(st);
      advance(st, cfg.poll_cost, &obs::Std::n_poll);  // one polling sweep
      const int s = sweep_pending(st, srcs, chk_sites.wait_any_timeout);
      if (s >= 0) return s;
      if (st.vtime >= deadline) return -1;
      st.wait_src = CoreState::kWaitAny;
      st.wait_set.assign(srcs.begin(), srcs.end());
      arm_timer(st, deadline);
      yield(st, CoreState::Status::Blocked);
      if (consume_timeout(st)) return -1;
    }
  }

  // ---- Raw chk annotations (see CoreCtx::chk_*) ----------------------------
  // All no-ops when the checker is off. The scheduler runs one fiber at a
  // time, so a fiber calling these between its blocking operations is the
  // only code touching the checker.

  void op_chk_mpb_write(CoreState& st, int owner, std::uint32_t lo,
                        std::uint32_t len, std::string_view site, int flow_src,
                        int flow_dst) {
    if (!chk) return;
    check_rank(owner, "chk_mpb_write");
    chk->mpb_write(st.rank, owner, lo, len, st.vtime, chk->site(site), flow_src,
                   flow_dst);
  }

  void op_chk_mpb_read(CoreState& st, int owner, std::uint32_t lo,
                       std::uint32_t len, std::string_view site, int flow_src,
                       int flow_dst) {
    if (!chk) return;
    check_rank(owner, "chk_mpb_read");
    chk->mpb_read(st.rank, owner, lo, len, st.vtime, chk->site(site), flow_src,
                  flow_dst);
  }

  void op_chk_flag_set(CoreState& st, int src, int dst, std::string_view site) {
    if (!chk) return;
    check_rank(src, "chk_flag_set");
    check_rank(dst, "chk_flag_set");
    chk->flag_set(st.rank, src, dst, st.vtime, chk->site(site));
  }

  void op_chk_flag_test(CoreState& st, int src, int dst, bool observed_set,
                        std::string_view site) {
    if (!chk) return;
    check_rank(src, "chk_flag_test");
    check_rank(dst, "chk_flag_test");
    chk->flag_test(st.rank, src, dst, observed_set, st.vtime, chk->site(site));
  }

  void op_chk_note(CoreState& st, int src, int dst, std::string_view site,
                   std::uint64_t id) {
    if (!chk) return;
    check_rank(src, "chk_note");
    check_rank(dst, "chk_note");
    chk->note(st.rank, src, dst, st.vtime, chk->site(site), id);
  }

  /// Protocol-event probe for the model checker (see CoreCtx::mc_proto).
  /// The invariant log is ordered by emission, so the emitting quantum is an
  /// observation point: mark it shared so no CoreTie node that could permute
  /// two emissions is ever pruned.
  void op_mc_proto(CoreState& st, mc::ProtoKind kind, std::uint64_t a,
                   std::uint64_t b) {
    if (mc == nullptr) return;
    st.mc_shared = true;
    mc->proto(kind, st.rank, a, b, st.vtime);
  }

  bool op_peer_alive(CoreState& st, int rank) {
    check_rank(rank, "peer_alive");
    mc_mark_shared(st);  // observes another core's crash state
    return !cores[static_cast<std::size_t>(rank)]->dead;
  }

  void op_barrier(CoreState& st) {
    mc_mark_shared(st);  // touches the shared barrier rendezvous
    barrier_time = std::max(barrier_time, st.vtime);
    if (barrier_count + 1 < nranks) {
      ++barrier_count;
      const std::uint64_t epoch = barrier_epoch;
      st.in_barrier = true;
      while (barrier_epoch == epoch) yield(st, CoreState::Status::Blocked);
    } else {
      // Last arriver releases everyone at the max arrival time + cost.
      barrier_count = 0;
      ++barrier_epoch;
      const noc::SimTime release = barrier_time + cfg.barrier_cost;
      barrier_time = 0;
      std::vector<int> joined;  // chk: participants released right now
      if (chk) joined.reserve(static_cast<std::size_t>(nranks));
      for (auto& c : cores) {
        if (c->in_barrier) {
          c->in_barrier = false;
          if (chk) joined.push_back(c->rank);
          record(c->rank, &obs::Std::n_blocked, c->blocked_since, release);
          c->report.blocked += release - c->blocked_since;
          c->vtime = release;
          c->wait_src = CoreState::kWaitNone;
          ++c->wait_epoch;
          c->status = CoreState::Status::Ready;
        }
      }
      st.vtime = release;
      if (chk) {
        joined.push_back(st.rank);
        chk->barrier(joined, release);
      }
      yield(st, CoreState::Status::Ready);
    }
  }

  // ---- Scheduler -----------------------------------------------------------

  /// Run `st`'s fiber until it yields, blocks or finishes.
  void dispatch(CoreState& st) {
    if (mc != nullptr) st.mc_shared = false;
    st.status = CoreState::Status::Running;
    resume(st);
    // The quantum is over (yielded, blocked or finished): report its
    // classification so pending CoreTie watches on this rank resolve.
    if (mc != nullptr) mc->segment(st.rank, !st.mc_shared);
  }

  std::string state_dump() const {
    std::ostringstream os;
    for (const auto& c : cores) {
      os << "  rank " << c->rank << ": ";
      switch (c->status) {
        case CoreState::Status::Ready: os << "ready"; break;
        case CoreState::Status::Running: os << "running"; break;
        case CoreState::Status::Blocked: os << "blocked"; break;
        case CoreState::Status::Done: os << "done"; break;
      }
      os << " t=" << noc::to_seconds(c->vtime) << "s";
      if (c->report.crashed)
        os << " CRASHED@" << noc::to_seconds(c->report.crashed_at) << "s";
      if (c->status == CoreState::Status::Blocked) {
        if (c->in_barrier) os << " in-barrier";
        else if (c->wait_src == CoreState::kWaitAny) os << " wait-any";
        else os << " wait-src=" << c->wait_src;
      }
      std::size_t pending = 0;
      for (const auto& [src, q] : c->inbox) pending += q.size();
      os << " inbox=" << pending << "\n";
    }
    return os.str();
  }

  /// Resume every unfinished fiber with the shutdown flag set, so each
  /// unwinds its frames (AbortSim) and reaches Done; a fiber that never
  /// started just finishes. Afterwards no stack holds a live frame.
  void shutdown_all() {
    shutdown = true;
    for (auto& c : cores)
      if (c->status != CoreState::Status::Done) resume(*c);
  }

  /// No runnable core and nothing pending: classify the stall
  /// (program error vs fault-attributable stall vs genuine deadlock), shut
  /// the farm down, and either record `failure` or throw.
  void report_stall(std::exception_ptr& failure) {
    for (auto& c : cores)
      if (c->error) failure = c->error;
    const std::string dump = state_dump();
    bool any_crashed = false;
    std::string crashed_ranks;
    for (auto& c : cores) {
      if (!c->report.crashed) continue;
      any_crashed = true;
      if (!crashed_ranks.empty()) crashed_ranks += ", ";
      crashed_ranks += std::to_string(c->rank);
    }
    // The stall is fault-attributable iff every surviving blocked core is
    // waiting on something a crash can explain: a dead sender, a wait_any
    // set containing a dead member, or a barrier some crashed core will
    // never reach.
    bool fault_stall = any_crashed;
    if (any_crashed) {
      for (auto& c : cores) {
        if (c->status != CoreState::Status::Blocked || c->dead) continue;
        bool attributable = false;
        if (c->in_barrier) {
          attributable = true;  // any_crashed: a dead core never arrives
        } else if (c->wait_src >= 0) {
          attributable = cores[static_cast<std::size_t>(c->wait_src)]->dead;
        } else if (c->wait_src == CoreState::kWaitAny) {
          for (int s : c->wait_set)
            if (cores[static_cast<std::size_t>(s)]->dead) attributable = true;
        }
        if (!attributable) {
          fault_stall = false;
          break;
        }
      }
    }
    shutdown_all();
    if (failure) return;
    if (fault_stall)
      throw FaultStallError("fault-induced stall: surviving cores wait on "
                            "crashed core(s) " +
                            crashed_ranks + "\n" + dump);
    throw DeadlockError("simulation deadlock: all cores blocked\n" + dump);
  }

  /// The scheduler: one simulated action at a time, always the entity with
  /// the smallest next timestamp — the earliest pending event, else the
  /// lowest-rank ready core at the minimum virtual time (events win ties).
  /// mc and chk may reorder only same-instant ties. Returns with every core
  /// Done or `failure` set (report_stall may throw instead).
  void run_serial_loop(std::exception_ptr& failure) {
    for (;;) {
      bool all_done = true;
      CoreState* pick = nullptr;
      for (auto& c : cores) {
        if (c->status == CoreState::Status::Done) continue;
        all_done = false;
        if (c->status == CoreState::Status::Ready &&
            (pick == nullptr || c->vtime < pick->vtime))
          pick = c.get();
      }
      if (all_done) return;

      const noc::SimTime t_evt = queue.empty() ? noc::kTimeInfinity : queue.next_time();
      const noc::SimTime t_core = pick != nullptr ? pick->vtime : noc::kTimeInfinity;

      if (!queue.empty() && t_evt <= t_core) {
        if (mc != nullptr && queue.tie_count() > 1) {
          // EventTie decision: several events due at the same instant. The
          // session picks which member of the head group fires; choice 0 is
          // the canonical schedule order.
          const std::size_t n = queue.tie_count();
          queue.run_nth(mc->choose_event_tie(static_cast<std::uint32_t>(n),
                                             mc_event_tie_independent()));
        } else {
          queue.run_one();  // deliveries may wake blocked cores, or kill one
        }
        apply_event_crashes();  // crash-at-event-K triggers ride the count
        reap_dead();  // let just-crashed fibers unwind to Done first
        continue;
      }
      if (pick == nullptr) {
        report_stall(failure);
        return;
      }
      if (mc != nullptr || chk_rng != 0) {
        // Ready cores tied at the minimum virtual time, in rank order, so
        // choice 0 is the canonical lowest-rank pick.
        tied.clear();
        for (auto& c : cores)
          if (c->status == CoreState::Status::Ready && c->vtime == pick->vtime)
            tied.push_back(c.get());
        if (tied.size() > 1) {
          if (mc != nullptr) {
            // CoreTie decision: every tied rank gets a dispatch-segment
            // watch; the node is pruned as independent only if all watched
            // segments stay local. mc takes precedence over chk.
            mc_ranks.clear();
            for (CoreState* c : tied) mc_ranks.push_back(c->rank);
            pick = tied[mc->choose_core_tie(mc_ranks)];
          } else {
            // Bounded schedule perturbation (chk.schedule_seed): dispatch a
            // tied core drawn from the seeded stream instead of always the
            // lowest rank. Only same-instant ties are reordered — every
            // perturbed schedule is one the conservative DES already admits
            // — and the draw sequence is a pure function of the seed, so
            // each seed replays bit-for-bit.
            pick = tied[static_cast<std::size_t>(chk_shuffle_next(chk_rng) %
                                                 tied.size())];
          }
        }
      }
      dispatch(*pick);
      if (pick->status == CoreState::Status::Done && pick->error) {
        failure = pick->error;
        shutdown_all();
        return;
      }
    }
  }
};

// ---- CoreCtx forwarding ----------------------------------------------------

int CoreCtx::rank() const noexcept { return st_->rank; }
int CoreCtx::nranks() const noexcept { return rt_->impl_->nranks; }
noc::SimTime CoreCtx::now() const noexcept { return st_->vtime; }
const SccConfig& CoreCtx::chip() const noexcept { return rt_->impl_->cfg.chip; }
const CoreTimingModel& CoreCtx::timing() const noexcept {
  return rt_->impl_->cfg.core_model;
}
void CoreCtx::charge_cycles(std::uint64_t cycles) { rt_->impl_->op_charge_cycles(*st_, cycles); }
double CoreCtx::freq_scale() const noexcept { return rt_->impl_->freq_scale_of(st_->rank); }
void CoreCtx::set_freq_scale(double scale) { rt_->impl_->op_set_freq(*st_, scale); }
void CoreCtx::charge(noc::SimTime dt) { rt_->impl_->op_charge(*st_, dt); }
void CoreCtx::dram_read(std::uint64_t bytes) { rt_->impl_->op_dram_read(*st_, bytes); }
void CoreCtx::send(int dst, bio::Bytes payload) {
  rt_->impl_->op_send(*st_, dst, std::move(payload));
}
bio::Bytes CoreCtx::recv(int src) { return rt_->impl_->op_recv(*st_, src); }
std::optional<bio::Bytes> CoreCtx::recv_timeout(int src, noc::SimTime timeout) {
  return rt_->impl_->op_recv_timeout(*st_, src, timeout);
}
bool CoreCtx::probe(int src) { return rt_->impl_->op_probe(*st_, src); }
int CoreCtx::wait_any(std::span<const int> srcs) { return rt_->impl_->op_wait_any(*st_, srcs); }
int CoreCtx::wait_any_timeout(std::span<const int> srcs, noc::SimTime timeout) {
  return rt_->impl_->op_wait_any_timeout(*st_, srcs, timeout);
}
bool CoreCtx::peer_alive(int rank) const { return rt_->impl_->op_peer_alive(*st_, rank); }
void CoreCtx::barrier() { rt_->impl_->op_barrier(*st_); }
void CoreCtx::chk_mpb_write(int mpb_owner, std::uint32_t lo, std::uint32_t len,
                            std::string_view site, int flow_src, int flow_dst) {
  rt_->impl_->op_chk_mpb_write(*st_, mpb_owner, lo, len, site, flow_src, flow_dst);
}
void CoreCtx::chk_mpb_read(int mpb_owner, std::uint32_t lo, std::uint32_t len,
                           std::string_view site, int flow_src, int flow_dst) {
  rt_->impl_->op_chk_mpb_read(*st_, mpb_owner, lo, len, site, flow_src, flow_dst);
}
void CoreCtx::chk_flag_set(int src, int dst, std::string_view site) {
  rt_->impl_->op_chk_flag_set(*st_, src, dst, site);
}
void CoreCtx::chk_flag_test(int src, int dst, bool observed_set,
                            std::string_view site) {
  rt_->impl_->op_chk_flag_test(*st_, src, dst, observed_set, site);
}
void CoreCtx::chk_note(int src, int dst, std::string_view site, std::uint64_t id) {
  rt_->impl_->op_chk_note(*st_, src, dst, site, id);
}
void CoreCtx::mc_proto(mc::ProtoKind kind, std::uint64_t a, std::uint64_t b) {
  rt_->impl_->op_mc_proto(*st_, kind, a, b);
}

// ---- SpmdRuntime -----------------------------------------------------------

SpmdRuntime::SpmdRuntime(RuntimeConfig cfg)
    : cfg_(cfg), impl_(std::make_unique<Impl>(*this, cfg_)) {}

SpmdRuntime::~SpmdRuntime() {
  // run() leaves every fiber Done on every path; this only matters if it
  // threw during setup. Unwind whatever is unfinished before the stacks go.
  if (impl_) impl_->shutdown_all();
}

const noc::NetworkStats& SpmdRuntime::network_stats() const noexcept {
  return impl_->network.stats();
}

std::uint64_t SpmdRuntime::events_fired() const noexcept { return impl_->queue.fired(); }

std::shared_ptr<obs::Recorder> SpmdRuntime::obs() const noexcept {
  return impl_->rec;
}

std::shared_ptr<chk::Checker> SpmdRuntime::chk() const noexcept {
  return impl_->chk;
}

obs::Handle CoreCtx::obs() const noexcept { return rt_->impl_->oh(st_->rank); }

HostParallelism HostParallelism::hardware() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return HostParallelism{n > 1 ? static_cast<int>(n) : 1};
}

noc::SimTime SpmdRuntime::run(int nranks, const Program& program) {
  Impl& im = *impl_;
  if (nranks < 1 || nranks > im.cfg.chip.core_count())
    throw SimError("run: nranks must be in [1, core_count]");
  if (im.used) throw SimError("run: SpmdRuntime is single-use; create a new instance");
  im.used = true;
  im.nranks = nranks;

  if (im.cfg.chk.active()) {
    im.chk = std::make_shared<chk::Checker>(im.cfg.chk, nranks,
                                            im.cfg.chip.mpb_bytes_per_core);
    // Fixed interning order keeps site ids (and report bytes) stable.
    im.chk_sites.send = im.chk->site("scc.send");
    im.chk_sites.recv = im.chk->site("scc.recv");
    im.chk_sites.recv_timeout = im.chk->site("scc.recv_timeout");
    im.chk_sites.probe = im.chk->site("scc.probe");
    im.chk_sites.wait_any = im.chk->site("scc.wait_any");
    im.chk_sites.wait_any_timeout = im.chk->site("scc.wait_any_timeout");
    im.chk_rng = im.cfg.chk.schedule_seed;
  }

  if (im.cfg.mc) {
    // Every scheduling tie becomes a decision point; a session that always
    // answers 0 leaves every simulated result bit-identical to an mc-off
    // run.
    im.mc = im.cfg.mc.get();
  }

  if (im.cfg.obs.active()) {
    im.rec = std::make_shared<obs::Recorder>(im.cfg.obs, nranks);
    im.rec->seal();
    im.mpb_bytes.assign(static_cast<std::size_t>(nranks), 0);
    im.network.set_observer(
        obs::Handle(im.rec.get(), im.rec->system_shard()));
  }

  // Validate and install the fault plan. Crashes become ordinary events in
  // the deterministic queue; message faults become an exact-match lookup.
  for (const FaultPlan::Crash& c : im.cfg.faults.crashes) {
    if (c.rank < 0 || c.rank >= nranks)
      throw SimError("fault plan: crash rank out of range");
  }
  for (const FaultPlan::MessageFault& f : im.cfg.faults.messages) {
    if (f.src < 0 || f.src >= nranks || f.dst < 0 || f.dst >= nranks)
      throw SimError("fault plan: message fault rank out of range");
    im.msg_faults[{f.src, f.dst, f.nth}] = f.kind;
  }
  for (const FaultPlan::Stall& s : im.cfg.faults.stalls) {
    if (s.rank < -1 || s.rank >= nranks)
      throw SimError("fault plan: stall rank out of range");
    if (s.slowdown <= 0.0) throw SimError("fault plan: stall slowdown must be positive");
    if (s.until < s.from) throw SimError("fault plan: stall window ends before it starts");
  }
  for (const FaultPlan::EventCrash& ec : im.cfg.faults.event_crashes) {
    if (ec.rank < 0 || ec.rank >= nranks)
      throw SimError("fault plan: event-crash rank out of range");
    im.event_crashes.push_back({ec.rank, ec.after_events, false});
  }
  for (const FaultPlan::Restart& rs : im.cfg.faults.restarts) {
    if (rs.rank < 0 || rs.rank >= nranks)
      throw SimError("fault plan: restart rank out of range");
  }
  im.flow_sent.assign(static_cast<std::size_t>(nranks) * static_cast<std::size_t>(nranks),
                      0);

  // One fiber per core, each run on this thread; a fiber first runs when
  // the scheduler dispatches its core.
  im.program = &program;
  im.cores.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    auto st = std::make_unique<CoreState>();
    st->rank = r;
    im.make_fiber(*st);
    im.cores.push_back(std::move(st));
  }
  for (const FaultPlan::Crash& c : im.cfg.faults.crashes) {
    CoreState& victim = *im.cores[static_cast<std::size_t>(c.rank)];
    im.queue.schedule_at(
        c.at, [&im, &victim, at = c.at] { im.apply_crash(victim, at); }, c.rank,
        noc::EventClass::Crash);
  }
  // Restart events: revive a crashed core with a fresh inbox and remake
  // its fiber on the same stack. Scheduled after the crash events so a
  // same-instant crash/restart pair applies in crash-then-restart order. A
  // restart whose rank is not dead (never crashed, or finished normally) is
  // a no-op.
  for (const FaultPlan::Restart& rs : im.cfg.faults.restarts) {
    CoreState& victim = *im.cores[static_cast<std::size_t>(rs.rank)];
    im.queue.schedule_at(
        rs.at,
        [&im, &victim, at = rs.at] {
          if (!victim.dead || victim.status != CoreState::Status::Done) return;
          // The crashed fiber has fully unwound (reap_dead runs after every
          // event), so its stack holds no live frame and can be reused.
          victim.inbox.clear();
          victim.rr_cursor = 0;
          victim.dead = false;
          victim.timed_out = false;
          victim.in_barrier = false;
          victim.wait_src = CoreState::kWaitNone;
          victim.wait_set.clear();
          ++victim.wait_epoch;  // stale timers from the previous life are void
          victim.vtime = std::max(victim.vtime, at);
          victim.status = CoreState::Status::Ready;
          ++victim.report.restarts;
          if (im.rec) {
            if (!im.mpb_bytes.empty())
              im.mpb_bytes[static_cast<std::size_t>(victim.rank)] = 0;
            const obs::Handle h = im.oh(victim.rank);
            h.instant(obs::Lane::Core, h.ids().n_restart, at,
                      static_cast<std::uint64_t>(victim.rank));
          }
          im.make_fiber(victim);  // starts over when next dispatched
        },
        rs.rank, noc::EventClass::Restart);
  }

  std::exception_ptr failure;
  try {
    // after_events == 0 means "crash before anything fires".
    im.apply_event_crashes();
    im.reap_dead();
    im.run_serial_loop(failure);
  } catch (...) {
    im.shutdown_all();  // unwind every parked fiber before rethrowing
    throw;
  }

  if (!failure) {
    for (auto& c : im.cores)
      if (c->error && !failure) failure = c->error;
  }
  if (failure) std::rethrow_exception(failure);

  if (im.rec) {
    // The activity spans become the per-core lanes. Appending in recording
    // order keeps each shard's sequence consistent with the schedule.
    for (const Impl::Activity& a : im.activity)
      im.rec->span(a.rank, obs::Lane::Core, a.name, a.start, a.end,
                   static_cast<std::uint64_t>(a.rank));
    const obs::Std& ids = im.rec->std_ids();
    if (im.chk && im.chk->stats().races > 0) {
      // Race markers + the "chk" snapshot section exist only when a race was
      // detected: a clean chk-enabled run stays byte-identical to chk-off.
      for (const chk::RaceReport& r : im.chk->reports()) {
        im.rec->instant(r.current.core, obs::Lane::Core, ids.n_chk_race,
                        r.current.ts, static_cast<std::uint64_t>(r.current.core));
      }
      im.rec->set_section("chk", im.chk->section_json());
    }
  }

  reports_.clear();
  noc::SimTime makespan = 0;
  for (auto& c : im.cores) {
    reports_.push_back(c->report);
    makespan = std::max(makespan, c->report.finish);
  }
  return makespan;
}

}  // namespace rck::scc
