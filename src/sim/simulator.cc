#include "sim/simulator.hh"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <ostream>

#include "common/log.hh"
#include "common/rng.hh"
#include "common/state_buffer.hh"
#include "thermal/floorplan.hh"

namespace hs {

const char *
dtmModeName(DtmMode mode)
{
    switch (mode) {
      case DtmMode::None: return "none";
      case DtmMode::StopAndGo: return "stop-and-go";
      case DtmMode::SelectiveSedation: return "selective-sedation";
      case DtmMode::DvfsThrottle: return "dvfs-throttle";
      case DtmMode::FetchGating: return "fetch-gating";
      default:
        panic("dtmModeName: bad mode %d", static_cast<int>(mode));
    }
}

DivergeRule
divergeRule(const SimConfig &cfg)
{
    // Mirrors the policy stacks the constructor builds: every mode but
    // None keeps stop-and-go underneath as the safety net.
    DivergeRule rule;
    if (cfg.dtm == DtmMode::None)
        return rule;
    rule.temp = cfg.stopAndGo.triggerTemp;
    switch (cfg.dtm) {
      case DtmMode::None:
      case DtmMode::StopAndGo:
        break;
      case DtmMode::SelectiveSedation:
        // The ablation replaces sedation's temperature trigger with
        // the usage one; its release threshold only matters once
        // engaged.
        if (cfg.sedation.useUsageThreshold)
            rule.usage = cfg.sedation.usageThreshold;
        else
            rule.temp = std::min(rule.temp, cfg.sedation.upperThreshold);
        break;
      case DtmMode::DvfsThrottle:
        rule.temp = std::min(rule.temp, cfg.dvfs.triggerTemp);
        break;
      case DtmMode::FetchGating:
        rule.temp = std::min(rule.temp, cfg.fetchGating.triggerTemp);
        break;
    }
    return rule;
}

std::array<double, numBlocks>
SimConfig::defaultNominalRates()
{
    // A typical two-thread SPEC mix (combined IPC ~2.2, ~30% memory
    // ops, ~20% FP). Sets the "normal operating temperature" of
    // Section 3.2.2 (the integer register file sits near 354 K).
    std::array<double, numBlocks> rates{};
    auto set = [&](Block b, double v) {
        rates[static_cast<size_t>(blockIndex(b))] = v;
    };
    set(Block::Icache, 1.8);
    set(Block::Itb, 1.8);
    set(Block::Bpred, 0.5);
    set(Block::IntMap, 3.0);
    set(Block::FpMap, 0.5);
    set(Block::IntQ, 13.5);
    set(Block::IntReg, 11.5);
    set(Block::FpReg, 1.2);
    set(Block::IntExec, 2.3);
    set(Block::FpAdd, 0.3);
    set(Block::FpMul, 0.2);
    set(Block::LdStQ, 1.1);
    set(Block::Dcache, 1.1);
    set(Block::Dtb, 1.1);
    set(Block::L2, 0.05);
    return rates;
}

Simulator::Simulator(const SimConfig &config)
    : config_(config),
      numCores_(config.topology.numCores),
      energy_(std::make_unique<EnergyModel>(config.energy))
{
    if (numCores_ < 1)
        fatal("Simulator: topology.numCores must be at least 1");
    if (config_.sensorInterval == 0 || config_.monitorInterval == 0)
        fatal("Simulator: sampling intervals must be positive");
    if (config_.sensorInterval % config_.monitorInterval != 0)
        fatal("Simulator: sensor interval must be a multiple of the "
              "monitor interval");

    // Resolve the thread placement: global context -> (core, slot).
    if (config_.placement.empty())
        coreOf_.assign(static_cast<size_t>(config_.smt.numThreads), 0);
    else
        coreOf_ = config_.placement;
    globalOf_.assign(static_cast<size_t>(numCores_),
                     std::vector<ThreadId>(
                         static_cast<size_t>(config_.smt.numThreads),
                         invalidThreadId));
    slotOf_.resize(coreOf_.size());
    {
        std::vector<int> used(static_cast<size_t>(numCores_), 0);
        for (size_t g = 0; g < coreOf_.size(); ++g) {
            int c = coreOf_[g];
            if (c < 0 || c >= numCores_)
                fatal("Simulator: placement[%zu] = %d is outside "
                      "[0, %d)",
                      g, c, numCores_);
            int slot = used[static_cast<size_t>(c)]++;
            if (slot >= config_.smt.numThreads)
                fatal("Simulator: placement puts more than %d "
                      "workloads on core %d",
                      config_.smt.numThreads, c);
            slotOf_[g] = static_cast<ThreadId>(slot);
            globalOf_[static_cast<size_t>(c)][static_cast<size_t>(slot)] =
                static_cast<ThreadId>(g);
        }
    }

    // One shared die: N tiles of the EV6 floorplan coupled across the
    // tile seams, over one spreader/sink. A 1-core topology builds a
    // network bit-identical to the original single-floorplan one.
    thermal_ = std::make_unique<ThermalModel>(
        Topology(Floorplan::ev6(), config_.topology), config_.thermal);

    cores_.resize(static_cast<size_t>(numCores_));
    for (int c = 0; c < numCores_; ++c) {
        CoreState &core = cores_[static_cast<size_t>(c)];
        core.programs.resize(
            static_cast<size_t>(config_.smt.numThreads));
        core.pipeline = std::make_unique<Pipeline>(config_.smt);
        core.powerSnapshot =
            std::make_unique<ActivityCounters::Snapshot>(
                core.pipeline->activity());

        switch (config_.dtm) {
          case DtmMode::None:
          case DtmMode::StopAndGo:
            break;
          case DtmMode::SelectiveSedation: {
            auto sed = std::make_unique<SelectiveSedation>(
                config_.smt.numThreads, config_.sedation,
                config_.monitorInterval);
            core.sedation = sed.get();
            core.policies.push_back(std::move(sed));
            if (config_.descheduleRepeatOffenders) {
                core.offenderTracker =
                    std::make_unique<OffenderTracker>(
                        config_.smt.numThreads, config_.offenderPolicy);
                core.offenderTracker->setOnDeschedule(
                    [this, c](ThreadId tid) {
                        CoreState &cs = cores_[static_cast<size_t>(c)];
                        cs.descheduled.push_back(tid);
                        if (tracer_)
                            tracer_->emit(cs.pipeline->cycle(),
                                          TraceKind::OsDeschedule, tid,
                                          traceNoBlock, 0.0,
                                          cs.descheduled.size());
                        cs.pipeline->setSedated(tid, true);
                    });
            }
            core.sedation->setOsReport(
                [this, c](const SedationEvent &event) {
                    CoreState &cs = cores_[static_cast<size_t>(c)];
                    if (cs.offenderTracker)
                        cs.offenderTracker->onReport(event);
                    if (userOsReport_)
                        userOsReport_(event);
                });
            break;
          }
          case DtmMode::DvfsThrottle:
            core.policies.push_back(
                std::make_unique<DvfsThrottle>(config_.dvfs));
            break;
          case DtmMode::FetchGating:
            core.policies.push_back(std::make_unique<FetchGating>(
                config_.smt.numThreads, config_.fetchGating));
            break;
        }
        if (config_.dtm != DtmMode::None) {
            // Stop-and-go is the base case, and under every other
            // policy it stays last in the stack as the safety net
            // (Section 3.2.2).
            auto sg = std::make_unique<StopAndGo>(config_.stopAndGo);
            core.stopAndGo = sg.get();
            core.policies.push_back(std::move(sg));
        }
    }

    if (config_.traceEvents) {
        // One shared ring for the whole die: cores emit in lockstep
        // cycle order and every event is stamped with its core id, so
        // the exported stream is deterministic and the drop-oldest
        // budget covers the die, exactly as it covered the one core.
        tracer_ = std::make_unique<Tracer>(config_.traceCapacity);
        for (CoreState &core : cores_) {
            core.pipeline->setTracer(tracer_.get());
            for (auto &policy : core.policies)
                policy->setTracer(tracer_.get());
        }
    }

    for (CoreState &core : cores_) {
        // The episode detector always runs (it feeds the run-health
        // histograms); without a tracer it simply emits no events.
        core.episodes = std::make_unique<OnlineEpisodeDetector>(
            config_.episodeTriggerTemp, config_.episodeResumeTemp,
            tracer_.get());
        core.episodes->setDurationSinks(&core.histEpisodeHeat,
                                        &core.histEpisodeCool);
        core.sedStart.assign(
            static_cast<size_t>(config_.smt.numThreads), 0);
        core.peakTemp.fill(0.0);
    }
}

Simulator::~Simulator() = default;

Simulator::CoreState &
Simulator::coreAt(int core)
{
    if (core < 0 || core >= numCores_)
        fatal("Simulator: core %d out of range [0, %d)", core,
              numCores_);
    return cores_[static_cast<size_t>(core)];
}

const Simulator::CoreState &
Simulator::coreAt(int core) const
{
    return const_cast<Simulator *>(this)->coreAt(core);
}

Pipeline &
Simulator::pipeline(int core)
{
    return *coreAt(core).pipeline;
}

SelectiveSedation *
Simulator::sedationPolicy(int core)
{
    return coreAt(core).sedation;
}

StopAndGo *
Simulator::stopAndGoPolicy(int core)
{
    return coreAt(core).stopAndGo;
}

OffenderTracker *
Simulator::offenderTracker(int core)
{
    return coreAt(core).offenderTracker.get();
}

void
Simulator::setWorkload(ThreadId tid, Program program)
{
    if (tid < 0 || tid >= static_cast<ThreadId>(coreOf_.size()))
        fatal("setWorkload: thread %d out of range", tid);
    CoreState &core =
        cores_[static_cast<size_t>(coreOf_[static_cast<size_t>(tid)])];
    size_t slot = static_cast<size_t>(slotOf_[static_cast<size_t>(tid)]);
    core.programs[slot] = std::make_unique<Program>(std::move(program));
    core.pipeline->setThreadProgram(static_cast<ThreadId>(slot),
                                    core.programs[slot].get());
    core.hasWork = true;
}

void
Simulator::setOsReport(SelectiveSedation::OsReportFn fn)
{
    userOsReport_ = std::move(fn);
    if (!cores_[0].sedation && userOsReport_)
        warn("setOsReport: no sedation policy; callback will not fire");
}

// --- DtmControl, one per core ----------------------------------------------

void
Simulator::CoreState::stallPipeline(bool stalled)
{
    pipeline->setGlobalStall(stalled);
}

bool
Simulator::CoreState::isDescheduled(ThreadId tid) const
{
    return std::find(descheduled.begin(), descheduled.end(), tid) !=
           descheduled.end();
}

void
Simulator::CoreState::sedateThread(ThreadId tid, bool sedated)
{
    if (!sedated && isDescheduled(tid))
        return;
    size_t i = static_cast<size_t>(tid);
    if (i < sedStart.size()) {
        if (sedated && sedStart[i] == 0) {
            sedStart[i] = pipeline->cycle() + 1;
        } else if (!sedated && sedStart[i] != 0) {
            histSedation.observe(static_cast<double>(
                pipeline->cycle() - (sedStart[i] - 1)));
            sedStart[i] = 0;
        }
    }
    pipeline->setSedated(tid, sedated);
}

void
Simulator::CoreState::throttleThread(ThreadId tid, int every_k)
{
    // OS-descheduled threads stay fully sedated.
    if (every_k <= 1 && isDescheduled(tid))
        return;
    pipeline->setThreadThrottle(tid, every_k);
}

void
Simulator::CoreState::throttlePipeline(int every_k)
{
    pipeline->setThrottle(every_k);
}

bool
Simulator::CoreState::threadActive(ThreadId tid) const
{
    return pipeline->thread(tid).state == ThreadState::Active;
}

// --- run loop ------------------------------------------------------------

bool
Simulator::allCoresHalted() const
{
    // A core with no bound programs never reports allHalted() (there
    // is nothing to halt on it); the machine is done when every core
    // that has work halted, and at least one core had work.
    bool any = false;
    for (const CoreState &core : cores_) {
        if (!core.hasWork)
            continue;
        any = true;
        if (!core.pipeline->allHalted())
            return false;
    }
    return any;
}

bool
Simulator::usageTriggered(double threshold) const
{
    for (const CoreState &core : cores_) {
        if (!core.sedation)
            continue;
        for (int b = 0; b < numBlocks; ++b)
            if (core.sedation->usageTriggered(blockFromIndex(b),
                                              threshold, core))
                return true;
    }
    return false;
}

void
Simulator::initNominalSteadyState()
{
    std::vector<Watts> steady =
        energy_->steadyPower(config_.nominalAccessRates);
    if (numCores_ > 1) {
        // Every tile starts the quantum at normal operation.
        std::vector<Watts> all;
        all.reserve(steady.size() * static_cast<size_t>(numCores_));
        for (int c = 0; c < numCores_; ++c)
            all.insert(all.end(), steady.begin(), steady.end());
        thermal_->initSteadyState(all);
    } else {
        thermal_->initSteadyState(steady);
    }
}

void
Simulator::countEmergencies(CoreState &core)
{
    for (int b = 0; b < numBlocks; ++b) {
        size_t i = static_cast<size_t>(b);
        Kelvin t = core.tempsBuf[i];
        core.peakTemp[i] = std::max(core.peakTemp[i], t);
        if (!core.aboveEmergency[i] && t >= config_.emergencyTemp) {
            core.aboveEmergency[i] = true;
            ++core.emergencies;
            ++core.emergenciesPerBlock[i];
            if (tracer_)
                tracer_->emit(core.pipeline->cycle(),
                              TraceKind::EmergencyUp, -1,
                              static_cast<uint8_t>(b), t,
                              core.emergencies);
        } else if (core.aboveEmergency[i] &&
                   t < config_.emergencyTemp - 0.5) {
            core.aboveEmergency[i] = false;
            if (tracer_)
                tracer_->emit(core.pipeline->cycle(),
                              TraceKind::EmergencyDown, -1,
                              static_cast<uint8_t>(b), t,
                              core.emergenciesPerBlock[i]);
        }
    }
}

double
Simulator::sensorDt() const
{
    return static_cast<double>(config_.sensorInterval) /
           config_.energy.frequencyHz;
}

void
Simulator::sampleSensors()
{
    auto prof_start = profiling_ ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{};
    Cycles now = cores_[0].pipeline->cycle();
    size_t nb = static_cast<size_t>(numBlocks);

    // All sample buffers are members: this runs every 20 K cycles and
    // must not churn the heap. Per-core window powers concatenate into
    // the shared die's power vector; the RC network steps once.
    thermalPowerBuf_.resize(nb * static_cast<size_t>(numCores_));
    for (int c = 0; c < numCores_; ++c) {
        CoreState &core = cores_[static_cast<size_t>(c)];
        Cycles active = core.pipeline->activeCycles();
        Cycles active_delta = active - core.lastActiveCycles;
        core.lastActiveCycles = active;
        energy_->windowPowerInto(core.pipeline->activity(),
                                 *core.powerSnapshot,
                                 config_.sensorInterval, active_delta,
                                 core.powerBuf);
        std::copy(core.powerBuf.begin(), core.powerBuf.end(),
                  thermalPowerBuf_.begin() +
                      static_cast<ptrdiff_t>(static_cast<size_t>(c) * nb));
    }
    double dt = sensorDt();
    thermal_->step(thermalPowerBuf_, dt);
    energyAccumJ_ += EnergyModel::total(thermalPowerBuf_) * dt;

    Kelvin observed_max = 0.0;
    for (int c = 0; c < numCores_; ++c) {
        CoreState &core = cores_[static_cast<size_t>(c)];
        if (tracer_)
            tracer_->setCoreId(static_cast<uint8_t>(c));

        core.tempsBuf.resize(nb);
        for (int b = 0; b < numBlocks; ++b)
            core.tempsBuf[static_cast<size_t>(b)] =
                thermal_->coreBlockTemp(c, blockFromIndex(b));

        // Emergencies are physical: counted on the true temperatures.
        countEmergencies(core);

        // The episode detector also observes physics, not noisy
        // sensors: Section 3.1's heat/cool structure is a property of
        // the chip.
        core.episodes->sample(
            now, core.tempsBuf[static_cast<size_t>(
                     blockIndex(Block::IntReg))]);

        // Run-health: queue-occupancy distributions sampled with the
        // sensors (fixed-bucket observes, allocation-free).
        core.histRuu.observe(
            static_cast<double>(core.pipeline->ruuOccupancy()));
        core.histLsq.observe(
            static_cast<double>(core.pipeline->lsqOccupancy()));

        if (config_.sensorNoiseK > 0.0) {
            // Policies observe imperfect sensors (one deterministic
            // stream for the die, drawn in core order).
            for (Kelvin &t : core.tempsBuf)
                t += (sensorNoise_.nextDouble() * 2.0 - 1.0) *
                     config_.sensorNoiseK;
        }

        // What the policies are about to see, for runPrefix()'s
        // divergence test: the observed (noised) maximum anywhere on
        // the die, not the physical one.
        Kelvin core_max = *std::max_element(core.tempsBuf.begin(),
                                            core.tempsBuf.end());
        if (c == 0 || core_max > observed_max)
            observed_max = core_max;

        for (auto &policy : core.policies)
            policy->atSensorSample(now, core.tempsBuf, core);
    }
    lastObservedMax_ = observed_max;
    if (tracer_)
        tracer_->setCoreId(0);

    if (config_.recordTempTrace &&
        now - lastTraceAt_ >= config_.tempTraceInterval) {
        lastTraceAt_ = now;
        auto [block, hottest] = thermal_->hottest();
        (void)block;
        tempTrace_.push_back(TempSample{
            now, thermal_->blockTemp(Block::IntReg), hottest,
            thermal_->sinkTemp()});
    }

    ++profile_.sensorSamples;
    if (profiling_)
        profile_.thermalSeconds +=
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - prof_start)
                .count();
}

template <class AtSample>
Cycles
Simulator::drive(AtSample &&at_sample)
{
    const Cycles quantum = config_.quantumCycles;
    const Cycles sensor = config_.sensorInterval;
    const Cycles monitor = config_.monitorInterval;

    // Countdowns to the next monitor/sensor boundary replace the two
    // divisions the old loop paid every cycle. They track the same
    // absolute boundaries: toMonitor/toSensor are the cycles left until
    // the next multiple of the respective interval. Every drive starts
    // at a sensor boundary (cycle 0 or a restored snapshot), where both
    // countdowns are full.
    Cycles toMonitor = monitor;
    Cycles toSensor = sensor;
    Cycles stalled_cycles = 0;
    bool idle = false; // the last lockstep cycle moved no instruction

    while (cores_[0].pipeline->cycle() < quantum) {
        if (idle) {
            // The last cycle moved nothing: advance every core, as
            // ticking would, across the cycles in which no core moves
            // an instruction either (a stalled core never does). Stop
            // one short of the next monitor or sensor boundary or the
            // quantum end, so that cycle ticks as usual.
            Cycles n = std::min({toMonitor, toSensor,
                                 quantum - cores_[0].pipeline->cycle()}) -
                       1;
            for (const CoreState &core : cores_) {
                if (n == 0)
                    break;
                n = core.pipeline->idleCycles(n);
            }
            if (n > 0) {
                auto t0 = profiling_
                              ? std::chrono::steady_clock::now()
                              : std::chrono::steady_clock::time_point{};
                bool all_stalled = true;
                for (CoreState &core : cores_) {
                    all_stalled &= core.pipeline->globalStalled();
                    core.pipeline->skipIdle(n);
                }
                if (all_stalled) {
                    stalled_cycles += n;
                    if (profiling_)
                        profile_.stallSeconds +=
                            std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
                }
                toMonitor -= n;
                toSensor -= n;
            }
        }
        // Lockstep cycle: a stalled core's tick only accounts its stall
        // (stop-and-go is per-core), the rest execute.
        idle = true;
        bool all_stalled = true;
        for (size_t c = 0; c < cores_.size(); ++c) {
            CoreState &core = cores_[c];
            if (tracer_)
                tracer_->setCoreId(static_cast<uint8_t>(c));
            all_stalled &= core.pipeline->globalStalled();
            if (core.pipeline->tick())
                idle = false;
        }
        stalled_cycles += all_stalled;
        if (--toMonitor == 0) {
            toMonitor = monitor;
            for (size_t c = 0; c < cores_.size(); ++c) {
                CoreState &core = cores_[c];
                if (core.pipeline->globalStalled())
                    continue; // stalled cores skip monitor samples
                if (tracer_)
                    tracer_->setCoreId(static_cast<uint8_t>(c));
                for (auto &policy : core.policies)
                    policy->atMonitorSample(core.pipeline->cycle(),
                                            core.pipeline->activity());
            }
        }
        if (tracer_)
            tracer_->setCoreId(0);
        --toSensor;
        if (toSensor == 0) {
            toSensor = sensor;
            sampleSensors();
            if (at_sample())
                break;
        }
        if (allCoresHalted())
            break;
    }
    return stalled_cycles;
}

RunResult
Simulator::run()
{
    // Establish normal-operation temperatures (HotSpot warm start) —
    // unless this simulator resumed from a snapshot, whose restored
    // RC-network temperatures already embed the warm start plus the
    // shared prefix's heating.
    if (!resumedFromSnapshot_)
        initNominalSteadyState();

    const Cycles start_cycle = cores_[0].pipeline->cycle();
    auto wall_start = std::chrono::steady_clock::now();
    Cycles stalled_cycles = drive([] { return false; });
    double host_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();

    // Per-thread fetch-slot shares over the whole quantum: one
    // observation per scheduled thread, of its fraction of all
    // I-cache fetch slots on its core — how far the hammer starved its
    // victims.
    for (CoreState &core : cores_) {
        uint64_t fetch_total = 0;
        for (ThreadId t = 0; t < config_.smt.numThreads; ++t)
            fetch_total +=
                core.pipeline->activity().count(t, Block::Icache);
        if (fetch_total) {
            for (ThreadId t = 0; t < config_.smt.numThreads; ++t) {
                if (core.pipeline->thread(t).state == ThreadState::Idle)
                    continue;
                core.histFetchShare.observe(
                    static_cast<double>(core.pipeline->activity().count(
                        t, Block::Icache)) /
                    static_cast<double>(fetch_total));
            }
        }
    }

    profile_.totalSeconds += host_seconds;
    profile_.stalledCycles += stalled_cycles;
    profile_.tickedCycles +=
        (cores_[0].pipeline->cycle() - start_cycle) - stalled_cycles;
    // Whatever the loop did not spend sampling sensors or skipping
    // stalls was cycle-by-cycle execution.
    profile_.tickSeconds = profile_.totalSeconds -
                           profile_.thermalSeconds -
                           profile_.stallSeconds;

    return collectResults(host_seconds);
}

Cycles
Simulator::runPrefix(const DivergeRule &rule, Cycles stride_samples,
                     SimSnapshot &out)
{
    if (cores_[0].pipeline->cycle() != 0)
        fatal("Simulator::runPrefix: needs a freshly constructed "
              "simulator");
    if (stride_samples == 0)
        stride_samples = 1;

    initNominalSteadyState();

    Cycles fork_cycle = 0;
    Cycles samples_since_save = 0;
    // run()'s own loop, so the prefix's history is the history every
    // cold group member produces; only what happens at a sensor sample
    // is added.
    drive([&] {
        // Past this boundary some group member's policy could have
        // observed an actionable temperature or usage; the last
        // snapshot already taken stays the fork point.
        if (lastObservedMax_ >= rule.temp || usageTriggered(rule.usage))
            return true;
        // Never hand out a snapshot at or beyond a halt: a cold run
        // breaks here, while a restored run would tick once more
        // before re-testing the halt.
        if (allCoresHalted())
            return true;
        // Stalls begin only at sensor samples, so this fires at the
        // sample where the stall began.
        for (const CoreState &core : cores_)
            if (core.pipeline->globalStalled())
                fatal("Simulator::runPrefix: the pipeline stalled — "
                      "the prefix simulator's DTM thresholds were not "
                      "neutralised");
        Cycles now = cores_[0].pipeline->cycle();
        bool last_boundary =
            config_.quantumCycles - now < config_.sensorInterval;
        if (++samples_since_save >= stride_samples || last_boundary) {
            save(out);
            fork_cycle = now;
            samples_since_save = 0;
        }
        return false;
    });
    return fork_cycle;
}

// --- snapshots -----------------------------------------------------------

void
Simulator::save(SimSnapshot &snap) const
{
    auto t0 = std::chrono::steady_clock::now();
    Cycles now = cores_[0].pipeline->cycle();
    if (now % config_.sensorInterval != 0)
        fatal("Simulator::save: cycle %llu is not a sensor boundary "
              "(interval %llu)",
              static_cast<unsigned long long>(now),
              static_cast<unsigned long long>(config_.sensorInterval));
    for (const CoreState &core : cores_) {
        if (core.pipeline->globalStalled())
            fatal("Simulator::save: cannot snapshot a stalled pipeline");
    }
    if (allCoresHalted())
        fatal("Simulator::save: cannot snapshot a halted machine (a "
              "restored run would re-test the halt one cycle later)");

    snap.clear();
    StateWriter w(snap.bytes);
    // A writer only reads the simulator.
    const_cast<Simulator *>(this)->serialize(w);

    snap.cycle = now;
    ++profile_.snapshotOps;
    if (profiling_)
        profile_.snapshotSeconds +=
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
}

void
Simulator::restore(const SimSnapshot &snap)
{
    auto t0 = std::chrono::steady_clock::now();
    if (snap.empty())
        fatal("Simulator::restore: empty snapshot");
    if (cores_[0].pipeline->cycle() != 0)
        fatal("Simulator::restore: only a freshly constructed "
              "simulator can restore (this one is at cycle %llu)",
              static_cast<unsigned long long>(
                  cores_[0].pipeline->cycle()));

    StateReader r(snap.bytes);
    serialize(r);
    r.expectEnd("Simulator::restore");

    resumedFromSnapshot_ = true;
    ++profile_.snapshotOps;
    if (profiling_)
        profile_.snapshotSeconds +=
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
}

template <class IO>
void
Simulator::serialize(IO &io)
{
    io.tag(stateTag("HSS1"), "SimSnapshot header");

    // Echo the configuration fields a forked cell must share with the
    // prefix, so restoring into an incompatible cell fails loudly.
    // DTM policy parameters are deliberately absent: cells differ
    // there by design, and policy state below the trigger is inert.
    io.echo(config_.smt.numThreads, "configuration (threads per core)");
    io.echo(config_.quantumCycles, "configuration (quantum)");
    io.echo(config_.sensorInterval, "configuration (sensor interval)");
    io.echo(config_.monitorInterval, "configuration (monitor interval)");
    io.echo(config_.emergencyTemp, "configuration (emergency temp)");
    io.echo(config_.sensorNoiseK, "configuration (sensor noise)");
    io.echo(config_.recordTempTrace, "configuration (temp trace)");
    io.echo(config_.thermal.timeScale, "configuration (time scale)");
    io.echo(config_.thermal.convectionR, "configuration (convection R)");
    io.echo(config_.thermal.idealSink, "configuration (ideal sink)");
    io.echo(config_.thermal.dieShrink, "configuration (die shrink)");
    io.echo(config_.traceEvents, "configuration (event trace)");
    // The trace capacity matters only to a traced run.
    uint32_t trace_cap = config_.traceCapacity;
    if (config_.traceEvents)
        io.echo(trace_cap, "configuration (trace capacity)");
    else
        io.value(trace_cap);
    io.echo(config_.episodeTriggerTemp, "configuration (episode trigger)");
    io.echo(config_.episodeResumeTemp, "configuration (episode resume)");
    // Topology axis: a fork must share the die composition and the
    // thread placement (both are in the divergence key, so every
    // member of a prefix group does).
    io.echo(numCores_, "configuration (cores)");
    io.echo(config_.topology.coreSpacing, "configuration (core spacing)");
    io.echo(config_.topology.couplingScale, "configuration (coupling)");
    io.echo(coreOf_, "configuration (placement)");

    for (CoreState &core : cores_)
        io.record(*core.pipeline);
    io.record(*thermal_);

    io.tag(stateTag("SIMS"), "Simulator accounting");
    for (CoreState &core : cores_) {
        io.value(core.lastActiveCycles);
        io.value(core.emergencies);
        io.value(core.emergenciesPerBlock);
        for (bool &above : core.aboveEmergency)
            io.value(above);
        io.value(core.peakTemp);
    }
    io.value(energyAccumJ_);
    std::array<uint64_t, 4> rng_state = sensorNoise_.state();
    io.value(rng_state);
    if constexpr (IO::kReading)
        sensorNoise_.setState(rng_state);
    io.vec(tempTrace_);
    io.value(lastTraceAt_);
    for (CoreState &core : cores_)
        io.record(*core.powerSnapshot);
    for (CoreState &core : cores_)
        io.vec(core.descheduled);

    // Sedation usage monitors: the one piece of policy state that
    // evolves unconditionally below the trigger, so forked sedation
    // cells need the prefix's copy transplanted.
    for (CoreState &core : cores_) {
        const ActivityCounters &activity = core.pipeline->activity();
        bool has_monitor = core.sedation != nullptr;
        io.value(has_monitor);
        if constexpr (IO::kReading) {
            if (!has_monitor && core.sedation)
                fatal("Simulator::restore: this configuration needs "
                      "usage-monitor state the snapshot does not carry");
            if (has_monitor && !core.sedation) {
                // State this configuration does not use: read it into
                // a same-shaped monitor and drop it.
                UsageMonitor unused(config_.smt.numThreads,
                                    config_.sedation.ewmaShift);
                unused.serialize(io, activity);
                continue;
            }
        }
        if (has_monitor)
            core.sedation->monitor().serialize(io, activity);
    }

    // Event tracer: traced forks must replay the prefix's event
    // history so their final traces are bit-identical to cold runs'.
    io.echo(tracer_ != nullptr, "configuration (event tracer)");
    if (tracer_) {
        io.record(*tracer_);
        // The shared prefix runs under (neutralised) sedation policies
        // and therefore records usage-monitor samples. A cold run of a
        // cell without a sedation policy never emits those; drop them
        // so forked and cold traces match (the trace-side twin of the
        // unused monitor above).
        if constexpr (IO::kReading) {
            if (!cores_[0].sedation)
                tracer_->dropCategory(TraceCategory::Monitor);
        }
    }

    // The episode detectors always run (their phase machines feed the
    // run-health histograms), so their state is saved unconditionally.
    for (CoreState &core : cores_)
        io.record(*core.episodes);

    // Run-health histograms + sedation bookkeeping: forked cells must
    // resume with the prefix's distribution state so their exported
    // histograms match cold runs' bit for bit.
    io.tag(stateTag("HMET"), "run-health histograms");
    for (CoreState &core : cores_) {
        io.record(core.histEpisodeHeat);
        io.record(core.histEpisodeCool);
        io.record(core.histSedation);
        io.record(core.histRuu);
        io.record(core.histLsq);
        io.record(core.histFetchShare);
        io.table(core.sedStart, "sedation bookkeeping thread count");
    }
}

RunResult
Simulator::collectResults(double host_seconds) const
{
    RunResult result;
    result.numCores = numCores_;
    result.cycles = cores_[0].pipeline->cycle();
    // Aggregate view: the most active core's clock (identical to the
    // single core's on a 1-core die); per-core values sit in cores[].
    result.activeCycles = 0;
    for (const CoreState &core : cores_)
        result.activeCycles = std::max(result.activeCycles,
                                       core.pipeline->activeCycles());
    result.hostSeconds = host_seconds;
    result.simCyclesPerHostSec =
        host_seconds > 0.0
            ? static_cast<double>(result.cycles) / host_seconds
            : 0.0;

    // Threads appear in global-context order, each reported against
    // its own core's (per-core) caches and predictor.
    for (size_t g = 0; g < coreOf_.size(); ++g) {
        int c = coreOf_[g];
        const CoreState &core = cores_[static_cast<size_t>(c)];
        ThreadId t = slotOf_[g];
        const ThreadContext &tc = core.pipeline->thread(t);
        if (tc.state == ThreadState::Idle)
            continue;
        const Cache &l1d = core.pipeline->mem().l1d();
        double l1d_missrate = l1d.missRate();
        double l2_missrate = core.pipeline->mem().l2().missRate();
        uint64_t bp_lookups = core.pipeline->bpred().lookups();
        double bp_accuracy =
            bp_lookups
                ? 1.0 - static_cast<double>(
                            core.pipeline->bpred().mispredicts()) /
                            static_cast<double>(bp_lookups)
                : 1.0;
        ThreadResult tr;
        tr.program = tc.program ? tc.program->name() : "";
        tr.core = c;
        tr.committed = tc.committedInsts;
        tr.ipc = result.cycles
                     ? static_cast<double>(tc.committedInsts) /
                           static_cast<double>(result.cycles)
                     : 0.0;
        tr.normalCycles = tc.normalCycles;
        tr.coolingCycles = tc.coolingCycles;
        tr.sedationCycles = tc.sedationCycles;
        tr.intRegAccessRate =
            result.cycles
                ? static_cast<double>(core.pipeline->activity().count(
                      t, Block::IntReg)) /
                      static_cast<double>(result.cycles)
                : 0.0;
        tr.l1dMissRate = l1d_missrate;
        tr.l2MissRate = l2_missrate;
        tr.bpredAccuracy = bp_accuracy;
        uint64_t fp = core.pipeline->activity().count(t, Block::FpAdd) +
                      core.pipeline->activity().count(t, Block::FpMul);
        tr.fpPerInst = tc.committedInsts
                           ? static_cast<double>(fp) /
                                 static_cast<double>(tc.committedInsts)
                           : 0.0;
        result.threads.push_back(std::move(tr));
    }

    // Aggregate the thermal accounting: counters sum across the die,
    // peaks take the per-block maximum over the cores.
    result.emergencies = 0;
    result.emergenciesPerBlock.fill(0);
    result.peakTemp.fill(0.0);
    for (const CoreState &core : cores_) {
        result.emergencies += core.emergencies;
        for (int b = 0; b < numBlocks; ++b) {
            size_t i = static_cast<size_t>(b);
            result.emergenciesPerBlock[i] += core.emergenciesPerBlock[i];
            result.peakTemp[i] =
                std::max(result.peakTemp[i], core.peakTemp[i]);
        }
    }
    result.peakTempOverall = 0;
    for (int b = 0; b < numBlocks; ++b) {
        if (result.peakTemp[static_cast<size_t>(b)] >
            result.peakTempOverall) {
            result.peakTempOverall =
                result.peakTemp[static_cast<size_t>(b)];
            result.hottestBlock = blockFromIndex(b);
        }
    }

    result.stopAndGoTriggers = 0;
    result.coolingStallCycles = 0;
    for (const CoreState &core : cores_) {
        if (core.stopAndGo) {
            result.stopAndGoTriggers += core.stopAndGo->triggers();
            result.coolingStallCycles += core.stopAndGo->stallCycles();
        }
    }
    // Per-core policy actions merge in core order with thread ids
    // remapped to the result's global numbering.
    for (size_t c = 0; c < cores_.size(); ++c) {
        const CoreState &core = cores_[c];
        if (core.sedation) {
            for (SedationEvent e : core.sedation->events()) {
                if (e.thread >= 0 &&
                    static_cast<size_t>(e.thread) < globalOf_[c].size())
                    e.thread = globalOf_[c][static_cast<size_t>(e.thread)];
                result.sedationEvents.push_back(e);
            }
        }
        for (ThreadId d : core.descheduled) {
            ThreadId g = d;
            if (d >= 0 && static_cast<size_t>(d) < globalOf_[c].size())
                g = globalOf_[c][static_cast<size_t>(d)];
            result.descheduledThreads.push_back(g);
        }
    }

    double seconds = static_cast<double>(result.cycles) /
                     config_.energy.frequencyHz;
    result.avgTotalPowerW = seconds > 0 ? energyAccumJ_ / seconds : 0.0;
    result.tempTrace = tempTrace_;
    if (tracer_) {
        tracer_->exportTo(result.traceEvents);
        result.traceEventsDropped = tracer_->dropped();
    }

    if (numCores_ > 1) {
        for (size_t c = 0; c < cores_.size(); ++c) {
            const CoreState &core = cores_[c];
            CoreResult cr;
            cr.core = static_cast<int>(c);
            cr.activeCycles = core.pipeline->activeCycles();
            cr.emergencies = core.emergencies;
            cr.emergenciesPerBlock = core.emergenciesPerBlock;
            cr.peakTemp = core.peakTemp;
            cr.peakTempOverall = 0;
            for (int b = 0; b < numBlocks; ++b) {
                if (core.peakTemp[static_cast<size_t>(b)] >
                    cr.peakTempOverall) {
                    cr.peakTempOverall =
                        core.peakTemp[static_cast<size_t>(b)];
                    cr.hottestBlock = blockFromIndex(b);
                }
            }
            if (core.stopAndGo) {
                cr.stopAndGoTriggers = core.stopAndGo->triggers();
                cr.coolingStallCycles = core.stopAndGo->stallCycles();
            }
            result.cores.push_back(cr);
        }
    }

    // Histogram names keep their historical single-core form on a
    // 1-core die; multi-core dies export one set per core, prefixed.
    auto histName = [&](size_t c, const char *name) {
        return numCores_ == 1 ? std::string(name)
                              : strprintf("core%zu.%s", c, name);
    };
    for (size_t c = 0; c < cores_.size(); ++c) {
        const CoreState &core = cores_[c];
        result.histograms.push_back(
            {histName(c, "sim.episode_heat_cycles"),
             "heating duration of completed heat episodes (cycles)",
             core.histEpisodeHeat});
        result.histograms.push_back(
            {histName(c, "sim.episode_cool_cycles"),
             "cooling duration of completed heat episodes (cycles)",
             core.histEpisodeCool});
        result.histograms.push_back(
            {histName(c, "sim.sedation_span_cycles"),
             "length of completed per-thread sedation spans (cycles)",
             core.histSedation});
        result.histograms.push_back(
            {histName(c, "sim.ruu_occupancy"),
             "RUU entries in use at each sensor sample", core.histRuu});
        result.histograms.push_back(
            {histName(c, "sim.lsq_occupancy"),
             "LSQ entries in use at each sensor sample", core.histLsq});
        result.histograms.push_back(
            {histName(c, "sim.fetch_slot_share"),
             "per-thread share of all fetch slots over the quantum",
             core.histFetchShare});
    }
    return result;
}

namespace {

/** Writes one dumpStats() section: an "== name ==" header, then one
 *  `name.stat  value  # desc` line per add(). */
class StatSection
{
  public:
    StatSection(std::ostream &os, std::string name)
        : os_(os), name_(std::move(name))
    {
        os_ << "== " << name_ << " ==\n";
    }

    void
    add(const std::string &stat, double value, const std::string &desc)
    {
        os_ << std::left << std::setw(40) << (name_ + "." + stat)
            << std::setw(16) << std::setprecision(12) << value << "# "
            << desc << "\n";
    }

  private:
    std::ostream &os_;
    std::string name_;
};

} // namespace

void
Simulator::dumpStats(std::ostream &os) const
{
    // Per-core groups carry a "coreN." prefix only on multi-core dies,
    // so single-core reports keep their historical bytes.
    auto corePrefix = [&](size_t c) {
        return numCores_ == 1 ? std::string() : strprintf("core%zu.", c);
    };
    {
        const Pipeline &pipe = *cores_[0].pipeline;
        uint64_t total_emergencies = 0;
        for (const CoreState &core : cores_)
            total_emergencies += core.emergencies;
        Cycles active = 0;
        for (const CoreState &core : cores_)
            active = std::max(active, core.pipeline->activeCycles());
        StatSection s(os, "sim");
        s.add("cycles", static_cast<double>(pipe.cycle()),
              "simulated cycles");
        s.add("active_cycles", static_cast<double>(active),
              "cycles the pipeline clock ran");
        s.add("avg_power_w",
              energyAccumJ_ /
                  std::max(1e-12,
                           static_cast<double>(pipe.cycle()) /
                               config_.energy.frequencyHz),
              "average chip power");
        s.add("emergencies", static_cast<double>(total_emergencies),
              "358 K crossings");
    }
    for (size_t c = 0; c < cores_.size(); ++c) {
        const Pipeline &pipe = *cores_[c].pipeline;
        for (ThreadId t = 0; t < config_.smt.numThreads; ++t) {
            const ThreadContext &tc = pipe.thread(t);
            if (tc.state == ThreadState::Idle)
                continue;
            StatSection s(os, strprintf("%sthread%d",
                                        corePrefix(c).c_str(), t));
            s.add("program", 0.0, tc.program ? tc.program->name() : "-");
            s.add("committed", static_cast<double>(tc.committedInsts),
                  "committed instructions");
            s.add("ipc",
                  pipe.cycle() ? static_cast<double>(tc.committedInsts) /
                                     static_cast<double>(pipe.cycle())
                               : 0.0,
                  "instructions per cycle");
            s.add("loads", static_cast<double>(tc.committedLoads),
                  "committed loads");
            s.add("stores", static_cast<double>(tc.committedStores),
                  "committed stores");
            s.add("branches",
                  static_cast<double>(tc.committedBranches),
                  "committed control instructions");
            s.add("squashed", static_cast<double>(tc.squashedInsts),
                  "squashed instructions");
            s.add("normal_cycles", static_cast<double>(tc.normalCycles),
                  "cycles in normal operation");
            s.add("cooling_cycles",
                  static_cast<double>(tc.coolingCycles),
                  "cycles stalled by stop-and-go");
            s.add("sedation_cycles",
                  static_cast<double>(tc.sedationCycles),
                  "cycles sedated");
            s.add("intreg_rate",
                  pipe.cycle()
                      ? static_cast<double>(
                            pipe.activity().count(t, Block::IntReg)) /
                            static_cast<double>(pipe.cycle())
                      : 0.0,
                  "integer register file accesses per cycle");
        }
    }
    for (size_t c = 0; c < cores_.size(); ++c) {
        const MemoryHierarchy &mem = cores_[c].pipeline->mem();
        StatSection s(os, corePrefix(c) + "mem");
        auto cache = [&](const char *name, const Cache &cch) {
            s.add(strprintf("%s.hits", name),
                  static_cast<double>(cch.hits()), "cache hits");
            s.add(strprintf("%s.misses", name),
                  static_cast<double>(cch.misses()), "cache misses");
            s.add(strprintf("%s.miss_rate", name), cch.missRate(),
                  "miss rate");
            s.add(strprintf("%s.writebacks", name),
                  static_cast<double>(cch.writebacks()),
                  "dirty evictions");
        };
        cache("l1i", mem.l1i());
        cache("l1d", mem.l1d());
        cache("l2", mem.l2());
        s.add("mem_writebacks",
              static_cast<double>(mem.memWritebacks()),
              "L2 victims written to memory");
    }
    for (size_t c = 0; c < cores_.size(); ++c) {
        const BranchPredictor &bp = cores_[c].pipeline->bpred();
        StatSection s(os, corePrefix(c) + "bpred");
        s.add("lookups", static_cast<double>(bp.lookups()),
              "direction predictions");
        s.add("mispredicts", static_cast<double>(bp.mispredicts()),
              "resolved mispredictions");
        s.add("accuracy",
              bp.lookups()
                  ? 1.0 - static_cast<double>(bp.mispredicts()) /
                              static_cast<double>(bp.lookups())
                  : 0.0,
              "prediction accuracy");
    }
    for (size_t c = 0; c < cores_.size(); ++c) {
        StatSection s(os, corePrefix(c) + "thermal");
        for (int b = 0; b < numBlocks; ++b) {
            Block block = blockFromIndex(b);
            s.add(strprintf("%s.temp_k", blockName(block)),
                  thermal_->coreBlockTemp(static_cast<int>(c), block),
                  "current temperature");
            s.add(strprintf("%s.peak_k", blockName(block)),
                  cores_[c].peakTemp[static_cast<size_t>(b)],
                  "peak temperature this run");
        }
        // The sink is shared by the whole die: report it once, with
        // the last core's section (the only section on one core).
        if (c + 1 == cores_.size())
            s.add("sink_k", thermal_->sinkTemp(),
                  "heat-sink temperature");
    }
    {
        uint64_t triggers = 0, stall_cycles = 0, sed_events = 0,
                 desched = 0;
        bool any_sg = false, any_sed = false;
        for (const CoreState &core : cores_) {
            if (core.stopAndGo) {
                any_sg = true;
                triggers += core.stopAndGo->triggers();
                stall_cycles += core.stopAndGo->stallCycles();
            }
            if (core.sedation) {
                any_sed = true;
                sed_events += core.sedation->events().size();
            }
            desched += core.descheduled.size();
        }
        StatSection s(os, "dtm");
        s.add("mode", 0.0, dtmModeName(config_.dtm));
        if (any_sg) {
            s.add("stop_and_go.triggers", static_cast<double>(triggers),
                  "global stalls");
            s.add("stop_and_go.stall_cycles",
                  static_cast<double>(stall_cycles),
                  "cycles stalled globally");
        }
        if (any_sed) {
            s.add("sedation.events", static_cast<double>(sed_events),
                  "sedation actions");
        }
        s.add("descheduled", static_cast<double>(desched),
              "threads removed by the OS extension");
    }
    if (tracer_) {
        uint64_t episodes_done = 0;
        for (const CoreState &core : cores_)
            episodes_done += core.episodes->completed();
        StatSection s(os, "trace");
        s.add("events_buffered", static_cast<double>(tracer_->size()),
              "events held in the ring");
        s.add("events_emitted", static_cast<double>(tracer_->emitted()),
              "events ever recorded");
        s.add("events_dropped", static_cast<double>(tracer_->dropped()),
              "events lost to ring overflow");
        s.add("episodes_completed", static_cast<double>(episodes_done),
              "heat/cool episodes observed");
    }
}

} // namespace hs
