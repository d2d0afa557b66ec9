/**
 * @file
 * The NeSC register file as data: one table row per register (or
 * register range) saying who may read and write it and what each
 * access does, and the one MMIO dispatch that applies the access rules
 * to every row alike. docs/REGISTERS.md is the prose datasheet of this
 * table; tests/test_registers.cc keeps the two in sync.
 */
#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <type_traits>

#include "nesc/controller.h"
#include "nesc/telemetry.h"
#include "repl/replica_set.h"

namespace nesc::ctrl {

namespace {
using u64 = std::uint64_t;
constexpr u64 kAllOnes = ~u64{0};
/** Decoded span of the page: up to the end of the doorbell aperture. */
constexpr u64 kDecodedBytes = reg::kQpDoorbell0 + 8 * kMaxQueuePairs;

/** @p field of a selected entry, or all-ones when none is selected. */
template <class E, class T>
u64
field_of(const E *entry, T E::*field)
{
    return entry != nullptr ? static_cast<u64>(entry->*field) : kAllOnes;
}
} // namespace

/** One decoded register access, as handed to a row's handler. */
struct Controller::RegOp {
    Controller &d;
    FunctionContext &c; ///< the accessing function's context
    pcie::FunctionId fn;
    u64 offset;
    u64 value;          ///< the written value (writes only)
    util::Status status; ///< a write handler may fail the access

    Qp *qp(std::uint32_t qid) const { return d.qp(c, qid); }

    /** A field of the function's live pair @p qid, else @p absent. */
    template <class T>
    u64 qp_field(std::uint32_t qid, T Qp::*field, u64 absent) const
    {
        const Qp *q = qp(qid);
        return q != nullptr ? static_cast<u64>(q->*field) : absent;
    }

    /** Points pair @p qid's SQ at the written value (re-attaches). */
    void repoint_sq(std::uint32_t qid) const
    {
        if (Qp *q = qp(qid); q != nullptr) {
            q->sq_base = value;
            q->sq.reset();
            q->sq_shadow_valid = false;
        }
    }

    void repoint_cq(std::uint32_t qid) const
    {
        if (Qp *q = qp(qid); q != nullptr) {
            q->cq_base = value;
            q->cq.reset();
        }
    }

    // Presence predicates of the two optional register blocks.
    static bool replicas_present(const Controller &d)
    {
        return d.replicas_ != nullptr;
    }
    static bool integrity_present(const Controller &d)
    {
        return d.integrity_ != nullptr;
    }

    // The selections of the select/read register pairs. A read-side
    // register reads all-ones (the master-abort idiom) when its
    // selection is out of range.

    /** @p read of the backend ReplBackendSelect names. */
    template <class T>
    u64 backend(T (repl::ReplicaSet::*read)(std::size_t) const) const
    {
        const std::size_t b = d.repl_backend_select_;
        return b < d.replicas_->backend_count()
                   ? static_cast<u64>((d.replicas_->*read)(b))
                   : kAllOnes;
    }

    std::uint16_t slo_fn() const { return d.slo_select_ & 0xffff; }

    /** SloSelect's closed window; none while accounting is off. */
    const obs::LogHistogram *slo_window() const
    {
        if (d.obs_window_ns_ == 0 || slo_fn() >= d.contexts_.size())
            return nullptr;
        return d.slo_.window(slo_fn(), (d.slo_select_ >> 16) & 0xf);
    }

    u64 slo_percentile(double p) const
    {
        const obs::LogHistogram *w = slo_window();
        return w != nullptr ? static_cast<u64>(std::llround(w->percentile(p)))
                            : kAllOnes;
    }

    /** @p read of SloSelect's function, while its window is readable. */
    u64 slo(u64 (obs::SloWatch::*read)(std::uint16_t) const) const
    {
        return slo_window() != nullptr ? (d.slo_.*read)(slo_fn())
                                       : kAllOnes;
    }

    const obs::SloBreach *breach() const
    {
        const auto &breaches = d.slo_.breaches();
        const std::uint32_t index = d.slo_breach_select_;
        return index < breaches.size() ? &breaches[index] : nullptr;
    }

    const obs::Postmortem *postmortem() const
    {
        const auto &postmortems = d.flight_.postmortems();
        const std::uint32_t index = d.postmortem_select_ & 0xffff;
        return index < postmortems.size() ? &postmortems[index] : nullptr;
    }

    const obs::FlightEvent *postmortem_event() const
    {
        const obs::Postmortem *pm = postmortem();
        const std::uint32_t index = d.postmortem_select_ >> 16;
        return pm != nullptr && index < pm->events.size()
                   ? &pm->events[index]
                   : nullptr;
    }
};

namespace {

using Op = Controller::RegOp;
using Register = Controller::Register;
using Presence = bool (*)(const Controller &);
constexpr auto kNone = Controller::RegAccess::kNone;
constexpr auto kAny = Controller::RegAccess::kAny;
constexpr auto kPf = Controller::RegAccess::kPf;
constexpr Presence kRepl = &Op::replicas_present;
constexpr Presence kIntegrity = &Op::integrity_present;

template <class M>
struct member_class;
template <class C, class T>
struct member_class<T C::*> {
    using type = C;
};

/**
 * The storage behind a field row: a device-wide Controller field, a
 * FunctionStats counter of the accessing function (the member-pointer
 * idiom of the telemetry directory), or another field of its context.
 */
template <auto Field>
auto &
field(Op &r)
{
    using Owner = typename member_class<decltype(Field)>::type;
    if constexpr (std::is_same_v<Owner, Controller>)
        return r.d.*Field;
    else if constexpr (std::is_same_v<Owner, FunctionStats>)
        return r.c.stats.*Field;
    else
        return r.c.*Field;
}

template <auto Field>
u64
get(Op &r)
{
    return static_cast<u64>(field<Field>(r));
}

/** Stores the written value at the field's width. */
template <auto Field>
void
set(Op &r)
{
    auto &f = field<Field>(r);
    f = static_cast<std::remove_reference_t<decltype(f)>>(r.value);
}

/** A read-only field. */
template <auto Field>
constexpr Register
ro(u64 offset, const char *name, Controller::RegAccess read = kAny,
   Presence present = nullptr)
{
    return {offset, name, read, kNone, get<Field>, nullptr, present};
}

/** A latch: reads return what was last written. */
template <auto Field>
constexpr Register
rw(u64 offset, const char *name, Controller::RegAccess access = kPf,
   Presence present = nullptr)
{
    return {offset, name, access, access, get<Field>, set<Field>, present};
}

} // namespace

// Table shorthand: REG(Name) is the offset reg::kName and the datasheet
// name "Name"; READ(expr) and WRITE(statement) are handlers that see the
// access as `r`. Longer handlers are spelled out as lambdas.
#define REG(name) reg::k##name, #name
#define READ(...) [](Op &r) -> u64 { return __VA_ARGS__; }
#define WRITE(...) [](Op &r) { __VA_ARGS__; }

// Offset order. Per-function rows act on the accessing function's own
// context; PF-only rows are device-wide.
const Controller::Register Controller::kRegisterTable[] = {
    // Hypervisor-owned: a guest must never repoint its own tree at a
    // self-crafted mapping. Live VF roots change through the PF's
    // kSetExtentRoot, which also flushes stale translations.
    {REG(ExtentTreeRoot), kAny, kPf, get<&FunctionContext::extent_tree_root>,
     set<&FunctionContext::extent_tree_root>},
    ro<&FunctionContext::miss_address>(REG(MissAddress)),
    ro<&FunctionContext::miss_size>(REG(MissSize)),
    {REG(RewalkTree), kNone, kAny, nullptr,
     WRITE(if (r.value != 0 && !r.c.quarantined) r.d.handle_rewalk(r.fn))},
    // Legacy aliases of queue pair 0. A write to an inactive function
    // (no pair 0 yet) is a dropped posted write.
    {REG(CmdRingBase), kAny, kAny,
     READ(r.qp_field(0, &Qp::sq_base, pcie::kNullHostAddr)),
     WRITE(r.repoint_sq(0))},
    {REG(CompRingBase), kAny, kAny,
     READ(r.qp_field(0, &Qp::cq_base, pcie::kNullHostAddr)),
     WRITE(r.repoint_cq(0))},
    {REG(Doorbell), kNone, kAny, nullptr,
     WRITE(r.status = r.d.doorbell_write(r.fn, 0))},
    ro<&FunctionContext::device_size_blocks>(REG(DeviceSize)),
    {REG(InterruptVector), kAny, kAny,
     [](Op &r) {
         const u64 vector = r.qp_field(0, &Qp::irq_vector, 0);
         return vector != 0 ? vector : completion_vector(r.fn);
     },
     WRITE(if (Qp *q = r.qp(0)) q->irq_vector = r.value)},
    ro<&FunctionStats::blocks_read>(REG(StatBlocksRead)),
    ro<&FunctionStats::blocks_written>(REG(StatBlocksWritten)),
    ro<&FunctionStats::faults>(REG(StatFaults)),
    ro<&FunctionContext::qos_weight>(REG(QosWeight)),
    // The field is kWatchdogNsBits wide: an absurd timeout is truncated
    // like hardware would, instead of arming a timer centuries out that
    // drags the device's shared timebase along.
    {REG(WatchdogNs), kAny, kAny, get<&FunctionContext::watchdog_ns>,
     WRITE(r.c.watchdog_ns = r.value & ((u64{1} << reg::kWatchdogNsBits) - 1);
           r.d.arm_watchdog(r.fn))},
    // A quarantined guest must not reset itself back to life; only the
    // PF's kReleaseQuarantine performs the releasing FLR.
    {REG(FnReset), kNone, kAny, nullptr,
     WRITE(if (r.value != 0 && !r.c.quarantined)
               r.d.function_level_reset(r.fn))},
    ro<&FunctionContext::fault>(REG(FaultKind)),
    ro<&FunctionStats::aborted_ops>(REG(StatAbortedOps)),
    ro<&FunctionStats::fn_resets>(REG(StatFnResets)),

    // PF management block.
    rw<&Controller::mgmt_vf_id_>(REG(MgmtVfId)),
    rw<&Controller::mgmt_extent_root_>(REG(MgmtExtentRoot)),
    rw<&Controller::mgmt_device_size_>(REG(MgmtDeviceSize)),
    {REG(MgmtCommand), kNone, kPf, nullptr,
     WRITE(r.d.mgmt_status_ =
               r.d.mgmt_execute(static_cast<MgmtCommand>(r.value)))},
    ro<&Controller::mgmt_status_>(REG(MgmtStatus), kPf),
    rw<&Controller::mgmt_qos_weight_>(REG(MgmtQosWeight)),

    // Translation fast path: PF-only, statistics included (global cache
    // occupancy is a cross-VF side channel).
    {REG(BtlbGeometry), kPf, kPf,
     [](Op &r) {
         const Btlb &btlb = r.d.btlb_;
         const bool fa = btlb.fully_associative();
         return encode_btlb_geometry(fa ? 0 : btlb.sets(),
                                     fa ? btlb.capacity() : btlb.ways(),
                                     btlb.range_shift());
     },
     [](Op &r) {
         BtlbConfig geometry;
         geometry.sets = r.value & 0xffff;
         const auto ways = static_cast<std::uint32_t>(r.value >> 16 & 0xffff);
         geometry.entries = geometry.sets <= 1 ? ways : geometry.sets * ways;
         geometry.range_shift = r.value >> 32 & 0xff;
         r.d.btlb_.configure(geometry); // flushes every entry
         r.d.metrics_.bump("btlb_reconfigs");
     }},
    {REG(StatBtlbHits), kPf, kNone, READ(r.d.btlb_.hits())},
    {REG(StatBtlbMisses), kPf, kNone, READ(r.d.btlb_.misses())},
    {REG(NodeCacheBytes), kPf, kPf, READ(r.d.node_cache_.budget_bytes()),
     WRITE(r.d.node_cache_.set_budget(r.value))},
    {REG(StatNodeCacheHits), kPf, kNone, READ(r.d.node_cache_.hits())},
    {REG(StatNodeCacheMisses), kPf, kNone, READ(r.d.node_cache_.misses())},
    {REG(WalkCoalesce), kPf, kPf,
     READ(r.d.walk_coalescing_ ? r.d.coalesce_window_ : 0),
     WRITE(r.d.walk_coalescing_ = r.value != 0;
           r.d.coalesce_window_ = r.value)},
    {REG(StatWalkCoalesced), kPf, kNone,
     READ(r.d.metrics_.counter_value(r.d.h_walk_coalesced_))},
    {REG(StatWalkReplays), kPf, kNone,
     READ(r.d.metrics_.counter_value(r.d.h_walk_replays_))},

    // Containment: quarantine state and misbehaviour counters sit on the
    // function's own page; the knobs are PF-only.
    ro<&FunctionContext::quarantined>(REG(QuarantineStatus)),
    ro<&FunctionContext::quarantine_cause>(REG(QuarantineCause)),
    ro<&FunctionStats::malformed>(REG(StatMalformed)),
    ro<&FunctionStats::dma_violations>(REG(StatDmaViolations)),
    ro<&FunctionStats::reg_violations>(REG(StatRegViolations)),
    rw<&Controller::dma_window_base_>(REG(DmaWindowBase)),
    rw<&Controller::dma_window_size_>(REG(DmaWindowSize)),
    rw<&Controller::quarantine_threshold_>(REG(QuarantineThreshold)),
    rw<&Controller::quarantine_window_>(REG(QuarantineWindowNs)),

    // Telemetry directory: PF-only (other functions' counters are a
    // cross-VF side channel).
    rw<&Controller::telemetry_select_>(REG(TelemetrySelect)),
    {REG(TelemetryValue), kPf, kNone,
     [](Op &r) {
         const std::uint32_t fn = r.d.telemetry_select_ & 0xffff;
         const std::uint32_t index = r.d.telemetry_select_ >> 16;
         if (fn >= r.d.contexts_.size() || index >= kTelemetryCounters.size())
             return kAllOnes;
         return r.d.contexts_[fn].stats.*(kTelemetryCounters[index].field);
     }},
    {REG(TelemetryCount), kPf, kNone,
     [](Op &) -> u64 { return kTelemetryCounters.size(); }},
    {reg::kTelemetryName0, "TelemetryName0..2", kPf, kNone,
     [](Op &r) {
         const std::uint32_t index = r.d.telemetry_select_ >> 16;
         if (index >= kTelemetryCounters.size())
             return kAllOnes;
         return pack_telemetry_name(kTelemetryCounters[index].name,
                                    r.offset - reg::kTelemetryName0);
     },
     nullptr, nullptr, 3},

    // Event batching.
    rw<&Controller::fetch_batch_>(REG(FetchBatch)),
    rw<&Controller::completion_batch_>(REG(CompletionBatch)),

    // Replication block: present with a replica set attached.
    {REG(ReplQuorum), kPf, kPf, READ(r.d.replicas_->config().quorum),
     WRITE(r.d.replicas_->set_quorum(r.value)), kRepl},
    {REG(ReplReadTimeoutNs), kPf, kPf,
     READ(r.d.replicas_->config().read_timeout),
     WRITE(r.d.replicas_->set_read_timeout(r.value)), kRepl},
    rw<&Controller::repl_backend_select_>(REG(ReplBackendSelect), kPf, kRepl),
    {REG(ReplBackendState), kPf, kNone,
     READ(r.backend(&repl::ReplicaSet::backend_state)), nullptr, kRepl},
    {REG(ReplBackendDirty), kPf, kNone,
     READ(r.backend(&repl::ReplicaSet::dirty_blocks)), nullptr, kRepl},
    {REG(ReplBackendTimeouts), kPf, kNone,
     READ(r.backend(&repl::ReplicaSet::backend_timeouts)), nullptr, kRepl},
    {REG(ReplBackendErrors), kPf, kNone,
     READ(r.backend(&repl::ReplicaSet::backend_errors)), nullptr, kRepl},
    {REG(ReplResyncDone), kPf, kNone,
     READ(r.backend(&repl::ReplicaSet::resync_copied)), nullptr, kRepl},
    {REG(ReplFailovers), kPf, kNone, READ(r.d.replicas_->failovers()),
     nullptr, kRepl},

    // Queue-pair admin block, on the function's own page. Staged-value
    // reads show the selected live pair and read all-ones when it does
    // not exist, so a driver probes for pairs without faulting. Writes
    // latch for the next kCreate and apply live to an existing pair.
    rw<&FunctionContext::qp_select>(REG(QpSelect), kAny),
    {REG(QpSqBase), kAny, kAny,
     READ(r.qp_field(r.c.qp_select, &Qp::sq_base, kAllOnes)),
     WRITE(r.c.qp_sq_latch = r.value; r.repoint_sq(r.c.qp_select))},
    {REG(QpCqBase), kAny, kAny,
     READ(r.qp_field(r.c.qp_select, &Qp::cq_base, kAllOnes)),
     WRITE(r.c.qp_cq_latch = r.value; r.repoint_cq(r.c.qp_select))},
    {REG(QpIrqVector), kAny, kAny,
     READ(r.qp_field(r.c.qp_select, &Qp::irq_vector, kAllOnes)),
     WRITE(r.c.qp_irq_latch = r.value;
           if (Qp *q = r.qp(r.c.qp_select)) q->irq_vector = r.value)},
    {REG(QpCommand), kNone, kAny, nullptr,
     WRITE(r.c.qp_status = r.d.qp_admin_execute(
               r.fn, static_cast<QpCommand>(r.value)))},
    ro<&FunctionContext::qp_status>(REG(QpStatus)),
    {REG(QpCount), kAny, kNone, READ(r.d.queue_pair_count(r.fn))},
    ro<&FunctionContext::qp_quota>(REG(QpQuota)),

    // Arbitration policy (hypervisor infrastructure, not guest-tunable)
    // and the staged per-VF QoS values.
    {REG(ArbMode), kPf, kPf, get<&Controller::arb_mode_>,
     [](Op &r) {
         r.d.arb_mode_ = r.value != 0 ? ArbMode::kDwrr : ArbMode::kLegacyWrr;
         // A mode switch restarts arbitration accounting from scratch:
         // no turn in progress, no banked credit or deficit anywhere.
         r.d.rr_credit_ = 0;
         r.d.dwrr_turn_live_ = false;
         for (FunctionContext &f : r.d.contexts_)
             f.arb_deficit = 0;
     }},
    // Quantum 0 would make DWRR turns grant nothing; clamp to 1.
    {REG(ArbQuantum), kPf, kPf, get<&Controller::arb_quantum_>,
     WRITE(r.d.arb_quantum_ = std::max<std::uint32_t>(
               1, static_cast<std::uint32_t>(r.value)))},
    rw<&Controller::mgmt_qp_quota_>(REG(MgmtQpQuota)),
    rw<&Controller::mgmt_rate_bps_>(REG(MgmtRateBytesPerSec)),
    rw<&Controller::mgmt_rate_burst_>(REG(MgmtRateBurstBytes)),

    // Integrity block, scrubber included: present with a checksum
    // sidecar attached.
    {REG(IntegrityCtrl), kPf, kPf, get<&Controller::integrity_enabled_>,
     WRITE(r.d.integrity_enabled_ = (r.value & 1) != 0), kIntegrity},
    rw<&Controller::integrity_reread_limit_>(REG(IntegrityRereadLimit), kPf,
                                             kIntegrity),
    ro<&Controller::integrity_mismatches_>(REG(IntegrityMismatches), kPf,
                                           kIntegrity),
    ro<&Controller::integrity_repairs_>(REG(IntegrityRepairs), kPf,
                                        kIntegrity),
    // A zero batch would make scrub ticks spin forever; clamp.
    {REG(ScrubBatch), kPf, kPf, get<&Controller::scrub_batch_>,
     WRITE(r.d.scrub_batch_ = std::max<u64>(1, r.value)), kIntegrity},
    rw<&Controller::scrub_interval_>(REG(ScrubIntervalNs), kPf, kIntegrity),
    ro<&Controller::scrub_running_>(REG(ScrubStatus), kPf, kIntegrity),
    ro<&Controller::scrub_progress_>(REG(ScrubProgress), kPf, kIntegrity),
    ro<&Controller::scrub_errors_>(REG(ScrubErrors), kPf, kIntegrity),
    // A guest sees its own checksum damage, sidecar attached or not.
    ro<&FunctionStats::checksum_errors>(REG(StatChecksumErrors)),

    // Observability block. The window registers read all-ones while
    // windowed accounting is off; the breach and postmortem directories
    // stay readable so forensics survive turning it off.
    {REG(ObsWindowNs), kPf, kPf, get<&Controller::obs_window_ns_>,
     [](Op &r) {
         Controller &d = r.d;
         d.obs_window_ns_ = r.value;
         const u64 epoch = ++d.obs_window_epoch_;
         if (d.obs_window_ns_ == 0)
             return;
         // Accounting survives pacing changes; only a fresh enable
         // starts the windows empty at the current time.
         if (!d.slo_.enabled())
             d.slo_.enable(d.num_functions(), d.simulator_.now());
         // Weak: an always-on rotation timer must never keep an
         // otherwise-drained simulation spinning.
         d.simulator_.schedule_weak_in(
             std::max<sim::Duration>(1, d.obs_window_ns_),
             [&d, epoch]() { d.obs_window_tick(epoch); });
     }},
    rw<&Controller::slo_max_p99_ns_>(REG(SloMaxP99Ns)),
    rw<&Controller::slo_max_error_ppm_>(REG(SloMaxErrorPpm)),
    rw<&Controller::slo_select_>(REG(SloSelect)),
    {REG(SloP50), kPf, kNone, READ(r.slo_percentile(50.0))},
    {REG(SloP99), kPf, kNone, READ(r.slo_percentile(99.0))},
    {REG(SloP999), kPf, kNone, READ(r.slo_percentile(99.9))},
    {REG(SloWindowOps), kPf, kNone, READ(r.slo(&obs::SloWatch::window_ops))},
    {REG(SloWindowErrors), kPf, kNone,
     READ(r.slo(&obs::SloWatch::window_errors))},
    {REG(SloWindowStart), kPf, kNone,
     READ(r.slo(&obs::SloWatch::window_start))},
    {REG(SloBreachCount), kPf, kNone, READ(r.d.slo_.breaches().size())},
    rw<&Controller::slo_breach_select_>(REG(SloBreachSelect)),
    {REG(SloBreachInfo), kPf, kNone,
     [](Op &r) {
         const obs::SloBreach *b = r.breach();
         return b == nullptr
                    ? kAllOnes
                    : b->fn | static_cast<u64>(b->metric) << 16;
     }},
    {REG(SloBreachObserved), kPf, kNone,
     READ(field_of(r.breach(), &obs::SloBreach::observed))},
    {REG(SloBreachThreshold), kPf, kNone,
     READ(field_of(r.breach(), &obs::SloBreach::threshold))},
    {REG(SloBreachWindow), kPf, kNone,
     READ(field_of(r.breach(), &obs::SloBreach::window_start))},
    {REG(FlightCtrl), kPf, kPf, READ(r.d.flight_.enabled()),
     [](Op &r) {
         if ((r.value & 1) == 0)
             r.d.flight_.disable();
         else
             r.d.flight_.enable(r.d.num_functions(), r.d.flight_depth_);
     }},
    {REG(FlightDepth), kPf, kPf, get<&Controller::flight_depth_>,
     WRITE(if (r.value != 0) r.d.flight_depth_ = r.value)},
    {REG(PostmortemCount), kPf, kNone,
     READ(r.d.flight_.postmortems().size())},
    rw<&Controller::postmortem_select_>(REG(PostmortemSelect)),
    {REG(PostmortemInfo), kPf, kNone,
     [](Op &r) {
         const obs::Postmortem *pm = r.postmortem();
         if (pm == nullptr)
             return kAllOnes;
         return pm->fn | static_cast<u64>(pm->reason) << 16 |
                (pm->detail & 0xff) << 24 |
                static_cast<u64>(pm->events.size()) << 32;
     }},
    {REG(PostmortemTime), kPf, kNone,
     READ(field_of(r.postmortem(), &obs::Postmortem::at))},
    {REG(PostmortemEventTime), kPf, kNone,
     READ(field_of(r.postmortem_event(), &obs::FlightEvent::at))},
    {REG(PostmortemEventTag), kPf, kNone,
     READ(field_of(r.postmortem_event(), &obs::FlightEvent::tag))},
    {REG(PostmortemEventVlba), kPf, kNone,
     READ(field_of(r.postmortem_event(), &obs::FlightEvent::vlba))},
    {REG(PostmortemEventMeta), kPf, kNone,
     [](Op &r) {
         const obs::FlightEvent *e = r.postmortem_event();
         return e == nullptr ? kAllOnes
                             : static_cast<u64>(e->type) |
                                   static_cast<u64>(e->aux) << 8;
     }},
    {REG(SamplerIntervalNs), kPf, kPf, get<&Controller::sampler_interval_>,
     [](Op &r) {
         Controller &d = r.d;
         d.sampler_interval_ = r.value;
         const u64 epoch = ++d.sampler_epoch_;
         if (d.sampler_interval_ == 0)
             return;
         // Baseline sample at arm time, then one per interval.
         d.sampler_.sample(d.simulator_.now());
         d.simulator_.schedule_weak_in(
             std::max<sim::Duration>(1, d.sampler_interval_),
             [&d, epoch]() { d.sampler_tick(epoch); });
     }},
    {REG(SamplerCount), kPf, kNone, READ(r.d.sampler_.size())},

    // Per-queue doorbell aperture: pair q rings at QpDoorbell0 + 8*q.
    // Both dwords of a doorbell decode, so the row steps by 4.
    {reg::kQpDoorbell0, "QpDoorbell0..15", kNone, kAny, nullptr,
     WRITE(r.status = r.d.doorbell_write(
               r.fn, (r.offset - reg::kQpDoorbell0) / 8)),
     nullptr, 2 * kMaxQueuePairs, 4},
};

#undef REG
#undef READ
#undef WRITE

std::span<const Controller::Register>
Controller::registers()
{
    return kRegisterTable;
}

const Controller::Register *
Controller::find_register(u64 offset)
{
    // One slot per dword of the decoded span: 1 + the index of the row
    // decoding that dword, or 0. Every doorbell write decodes, so the
    // lookup is one array index.
    static_assert(std::size(kRegisterTable) < 256, "rows index in a byte");
    static const auto slots = [] {
        std::array<std::uint8_t, kDecodedBytes / 4> s{};
        for (std::size_t i = 0; i < std::size(kRegisterTable); ++i) {
            const Register &row = kRegisterTable[i];
            for (unsigned n = 0; n < row.count; ++n)
                s[(row.offset + n * row.stride) / 4] =
                    static_cast<std::uint8_t>(i + 1);
        }
        return s;
    }();
    if (offset % 4 != 0 || offset >= kDecodedBytes)
        return nullptr;
    const std::uint8_t slot = slots[offset / 4];
    return slot == 0 ? nullptr : &kRegisterTable[slot - 1];
}

util::Result<const Controller::Register *>
Controller::decode_register(pcie::FunctionId fn, u64 offset, bool write)
{
    if (fn >= contexts_.size())
        return util::out_of_range_error("no such function");
    const Register *row = find_register(offset);
    const RegAccess access = row == nullptr ? RegAccess::kNone
                             : write        ? row->write
                                            : row->read;
    if (access == RegAccess::kNone)
        return util::invalid_argument_error(
            std::string("unknown register ") + (write ? "write" : "read") +
            " at " + std::to_string(offset));
    if (access == RegAccess::kPf && fn != pcie::kPhysicalFunctionId) {
        // One choke point for the whole privileged surface: hostile
        // guests probe it, so a rejected write is also counted where
        // the hypervisor can see it.
        if (write) {
            ++ctx(fn).stats.reg_violations;
            metrics_.bump("reg_violations");
        }
        return util::permission_denied_error(std::string(row->name) +
                                             " is PF-only");
    }
    return row;
}

util::Result<u64>
Controller::mmio_read(pcie::FunctionId fn, u64 offset, unsigned)
{
    NESC_ASSIGN_OR_RETURN(const Register *row,
                          decode_register(fn, offset, /*write=*/false));
    // An absent optional block reads all-ones (master-abort idiom), so
    // software feature-detects it without faulting...
    if (row->present != nullptr && !row->present(*this))
        return kAllOnes;
    RegOp op{*this, ctx(fn), fn, offset, 0, {}};
    return row->on_read(op);
}

util::Status
Controller::mmio_write(pcie::FunctionId fn, u64 offset, u64 value, unsigned)
{
    NESC_ASSIGN_OR_RETURN(const Register *row,
                          decode_register(fn, offset, /*write=*/true));
    // ...and drops writes, like a posted write nobody claims.
    if (row->present != nullptr && !row->present(*this))
        return util::Status::ok();
    RegOp op{*this, ctx(fn), fn, offset, value, {}};
    row->on_write(op);
    return op.status;
}

} // namespace nesc::ctrl
