//! Property-based tests of the LLM serving substrate: conservation laws of
//! continuous batching, trace-generation statistics, and cost-model
//! monotonicity under arbitrary workloads.

use proptest::prelude::*;

use aum_au::counters::PmuCounters;
use aum_au::gemm::ExecContext;
use aum_au::unit::Precision;
use aum_llm::batching::{ActiveRequest, DecodePool, PrefillQueue};
use aum_llm::config::ModelConfig;
use aum_llm::cost::{iteration_cost, AuKernels, IterationCost, IterationPricer};
use aum_llm::engine::{EngineConfig, EngineMode, EngineResources, LlmEngine, RegionResources};
use aum_llm::ops::{iteration_ops, IterOp, Phase};
use aum_llm::request::{Request, RequestId};
use aum_llm::slo::{SloReport, SloSpec, SloTally};
use aum_llm::traces::{Scenario, TraceGenerator};
use aum_platform::spec::PlatformSpec;
use aum_platform::units::GbPerSec;
use aum_sim::hist::LogHistogram;
use aum_sim::rng::DetRng;
use aum_sim::time::{SimDuration, SimTime};

fn any_scenario() -> impl Strategy<Value = Scenario> {
    prop_oneof![
        Just(Scenario::Chatbot),
        Just(Scenario::CodeCompletion),
        Just(Scenario::Summarization)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn traces_are_sorted_sized_and_bounded(
        scenario in any_scenario(),
        seed in any::<u64>(),
        rate in 0.1f64..5.0,
        secs in 1u64..120,
    ) {
        let trace = TraceGenerator::new(scenario, rate)
            .generate(&DetRng::from_seed(seed), SimDuration::from_secs(secs));
        for w in trace.windows(2) {
            prop_assert!(w[0].arrival <= w[1].arrival);
            prop_assert!(w[0].id < w[1].id);
        }
        for r in &trace {
            prop_assert!(r.arrival < SimTime::from_secs(secs));
            prop_assert!(r.input_len >= 16 && r.input_len <= scenario.mean_input() * 4);
            prop_assert!(r.output_len >= 4 && r.output_len <= scenario.mean_output() * 4);
        }
    }

    #[test]
    fn decode_pool_conserves_tokens(
        outputs in prop::collection::vec(2usize..50, 1..16),
        iter_ms in 10u64..200,
    ) {
        let mut pool = DecodePool::new(outputs.len());
        let total_expected: usize = outputs.iter().map(|&o| o - 1).sum();
        for (i, &out) in outputs.iter().enumerate() {
            pool.admit(ActiveRequest::start(&Request::new(i as u64, SimTime::ZERO, 100, out)));
        }
        let mut emitted = 0usize;
        let mut finished = 0usize;
        let mut guard = 0;
        while !pool.is_empty() {
            emitted += pool.batch();
            finished += pool.step(SimDuration::from_millis(iter_ms)).len();
            guard += 1;
            prop_assert!(guard < 10_000, "pool must drain");
        }
        prop_assert_eq!(emitted, total_expected, "every remaining token emitted exactly once");
        prop_assert_eq!(finished, outputs.len(), "every request retires exactly once");
    }

    #[test]
    fn lag_matches_its_definition(
        exec_ms in prop::collection::vec(1u64..400, 1..50),
        d_tpot_ms in 10u64..300,
    ) {
        // LAG_i = Σ (d_TPOT − e_token) over completed tokens.
        let mut pool = DecodePool::new(1);
        pool.admit(ActiveRequest::start(&Request::new(0, SimTime::ZERO, 10, exec_ms.len() + 1)));
        let mut expected = 0.0;
        for &ms in &exec_ms {
            let _ = pool.step(SimDuration::from_millis(ms));
            expected += (d_tpot_ms as f64 - ms as f64) / 1000.0;
            if !pool.is_empty() {
                let lag = pool.worst_lag_secs(SimDuration::from_millis(d_tpot_ms));
                prop_assert!((lag - expected).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn prefill_queue_is_fifo(arrivals in prop::collection::vec(0u64..10_000, 1..50)) {
        let mut sorted = arrivals.clone();
        sorted.sort_unstable();
        let mut q = PrefillQueue::new();
        for (i, &a) in sorted.iter().enumerate() {
            q.push(Request::new(i as u64, SimTime::from_millis(a), 10, 10));
        }
        let mut last = None;
        while let Some(r) = q.pop() {
            if let Some(prev) = last {
                prop_assert!(r.id.0 > prev);
            }
            last = Some(r.id.0);
        }
    }

    #[test]
    fn iteration_cost_monotone_in_tokens_and_context(
        tokens in 1usize..64,
        ctx_len in 16usize..4096,
    ) {
        let spec = PlatformSpec::gen_a();
        let kernels = AuKernels::for_platform(&spec);
        let exec_ctx = ExecContext::new(96, 3.1, spec.mem_bw);
        let mut pmu = PmuCounters::new();
        let model = ModelConfig::llama2_7b();
        let small = iteration_cost(&model, Phase::Decode, tokens, ctx_len,
            Precision::Bf16, &kernels, &exec_ctx, &mut pmu);
        let more_tokens = iteration_cost(&model, Phase::Decode, tokens + 8, ctx_len,
            Precision::Bf16, &kernels, &exec_ctx, &mut pmu);
        let more_ctx = iteration_cost(&model, Phase::Decode, tokens, ctx_len + 512,
            Precision::Bf16, &kernels, &exec_ctx, &mut pmu);
        prop_assert!(more_tokens.time >= small.time);
        prop_assert!(more_ctx.time >= small.time, "longer context reads more KV");
        prop_assert!(more_tokens.flops > small.flops);
        prop_assert!(more_ctx.bytes > small.bytes);
    }

    #[test]
    fn op_graphs_are_consistent(
        tokens in 1usize..64,
        ctx_len in 16usize..4096,
        phase in prop_oneof![Just(Phase::Prefill), Just(Phase::Decode)],
    ) {
        let model = ModelConfig::llama2_7b();
        let tokens = if phase == Phase::Prefill { tokens * ctx_len } else { tokens };
        let ops = iteration_ops(&model, phase, tokens, ctx_len);
        prop_assert!(!ops.is_empty());
        let flops: f64 = ops.iter().map(IterOp::total_flops).sum();
        prop_assert!(flops > 0.0);
        for op in &ops {
            prop_assert!(op.repeat >= 1);
            prop_assert!(!op.shape.is_empty(), "{}: degenerate shape", op.label);
        }
    }

    #[test]
    fn engine_never_loses_requests(
        seed in any::<u64>(),
        rate in 0.2f64..2.0,
        secs in 5u64..40,
    ) {
        let spec = PlatformSpec::gen_a();
        let trace = TraceGenerator::new(Scenario::CodeCompletion, rate)
            .generate(&DetRng::from_seed(seed), SimDuration::from_secs(secs));
        let n = trace.len() as u64;
        let mut engine = LlmEngine::new(
            EngineConfig::paper_default(Scenario::CodeCompletion), &spec, trace);
        let res = EngineResources {
            prefill: RegionResources::new(96, 2.5, spec.mem_bw),
            decode: RegionResources::new(96, 3.1, spec.mem_bw),
            mode: EngineMode::TimeMultiplexed,
        };
        let mut t = 0;
        while !engine.drained() && t < 10 * secs + 600 {
            t += 1;
            let _ = engine.run_interval(SimTime::from_secs(t), &res);
        }
        prop_assert!(engine.drained(), "engine must drain all {n} requests");
        prop_assert_eq!(engine.completed(), n);
        // Every request produced exactly one TTFT.
        prop_assert_eq!(engine.slo_report().prefills as u64, n);
    }
}

fn slo() -> SloSpec {
    SloSpec::new(SimDuration::from_millis(250), SimDuration::from_millis(100))
}

/// The report built from one record per TTFT and per decode token —
/// the pre-streaming implementation, kept as the tally's oracle.
fn from_records(
    slo: SloSpec,
    ttfts: &[SimDuration],
    tokens: &[(RequestId, SimDuration)],
) -> SloReport {
    let ttft_hist: LogHistogram = ttfts.iter().map(|t| t.as_secs_f64()).collect();
    let tpot_hist: LogHistogram = tokens.iter().map(|t| t.1.as_secs_f64()).collect();
    let ttft_ok = if ttfts.is_empty() {
        1.0
    } else {
        ttfts.iter().filter(|&&t| t <= slo.ttft).count() as f64 / ttfts.len() as f64
    };
    let mut per_request: std::collections::BTreeMap<RequestId, (f64, u32)> =
        std::collections::BTreeMap::new();
    for t in tokens {
        let e = per_request.entry(t.0).or_insert((0.0, 0));
        e.0 += t.1.as_secs_f64();
        e.1 += 1;
    }
    let tpot_req_hist: LogHistogram = per_request
        .values()
        .map(|(sum, n)| sum / f64::from(*n))
        .collect();
    let tpot_ok = if per_request.is_empty() {
        1.0
    } else {
        let met = per_request
            .values()
            .filter(|(sum, n)| sum / f64::from(*n) <= slo.tpot.as_secs_f64())
            .count();
        met as f64 / per_request.len() as f64
    };
    SloReport {
        ttft_guarantee: ttft_ok,
        tpot_guarantee: tpot_ok,
        ttft_p50: ttft_hist.quantile(0.5),
        ttft_p90: ttft_hist.quantile(0.9),
        tpot_p50: tpot_hist.quantile(0.5),
        tpot_p90: tpot_hist.quantile(0.9),
        tpot_req_p50: tpot_req_hist.quantile(0.5),
        tpot_req_p90: tpot_req_hist.quantile(0.9),
        ttft_p99: ttft_hist.quantile(0.99),
        tpot_req_p99: tpot_req_hist.quantile(0.99),
        prefills: ttfts.len(),
        tokens: tokens.len(),
        ttft_hist,
        tpot_hist,
        tpot_req_hist,
    }
}

proptest! {
    // Requests join the pool in shuffled id order with mixed output
    // lengths, so they retire out of id order, and the stream stops
    // with requests still in flight. The tally and the record oracle
    // must agree on the whole report and on every histogram's float
    // sum, bit for bit.
    #[test]
    fn tally_matches_the_record_oracle(
        requests in prop::collection::vec((0u64..1000, 2usize..40, 1u64..3000), 0..40),
        execs in prop::collection::vec(prop_oneof![Just(0u64), 1u64..400_000], 1..400),
        max_batch in 1usize..17,
    ) {
        let mut tally = SloTally::new(slo());
        let (mut ttfts, mut tokens) = (Vec::new(), Vec::new());
        let mut pool = DecodePool::new(max_batch);
        let mut waiting = requests.iter().enumerate();
        for &us in &execs {
            while pool.free_slots() > 0 {
                let Some((i, &(key, output, ttft_ms))) = waiting.next() else { break };
                let id = key * 1000 + i as u64;
                let ttft = SimDuration::from_millis(ttft_ms);
                tally.record_ttft(ttft);
                ttfts.push(ttft);
                pool.admit(ActiveRequest::start(&Request::new(id, SimTime::ZERO, 1, output)));
            }
            if pool.is_empty() {
                break;
            }
            let exec = SimDuration::from_micros(us);
            tally.record_tokens(exec, pool.batch());
            tokens.extend(pool.active().iter().map(|r| (r.id, exec)));
            for f in pool.step(exec) {
                tally.retire(&f);
            }
        }
        let online = tally.report(pool.active());
        let oracle = from_records(slo(), &ttfts, &tokens);
        for (a, b) in [
            (&online.ttft_hist, &oracle.ttft_hist),
            (&online.tpot_hist, &oracle.tpot_hist),
            (&online.tpot_req_hist, &oracle.tpot_req_hist),
        ] {
            prop_assert_eq!(a.sum().to_bits(), b.sum().to_bits());
        }
        prop_assert_eq!(online, oracle);
    }
}

/// Every field of an iteration's cost, as bits.
fn cost_bits(c: &IterationCost) -> [u64; 6] {
    [
        c.time.as_nanos(),
        c.flops.to_bits(),
        c.bytes.to_bits(),
        c.bw_demand_gbs.to_bits(),
        c.memory_bound_frac.to_bits(),
        c.amx_flop_frac.to_bits(),
    ]
}

/// The grants a pricer sequence draws from: few, so that keys repeat, and
/// differing in every field, so that a changed key re-prices.
fn grants(spec: &PlatformSpec) -> [ExecContext; 3] {
    let cores = spec.total_cores();
    [
        ExecContext::new(cores, 3.1, spec.mem_bw),
        ExecContext::new(cores / 2, 2.5, GbPerSec(spec.mem_bw.value() / 2.0)),
        ExecContext::new(cores / 4, 2.0, spec.mem_bw).with_penalties(1.3, 1.1),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // One pricer serves a whole sequence, as in an engine run. Half the
    // steps keep the last decode batch and grant, so its terms are
    // reused; the rest draw a new batch and grant, and one in eight is a
    // prefill step between decode iterations. Every result must equal
    // `iteration_cost`'s, field by field and bit for bit.
    #[test]
    fn pricer_matches_iteration_cost_bit_for_bit(
        platform in 0usize..3,
        moe in any::<bool>(),
        steps in prop::collection::vec((0u8..8, 1usize..=16, 1usize..=8192, 0usize..3), 1..48),
    ) {
        let spec = match platform {
            0 => PlatformSpec::gen_a(),
            1 => PlatformSpec::gen_b(),
            _ => PlatformSpec::gen_c(),
        };
        let model = if moe { ModelConfig::qwen3_30b_a3b() } else { ModelConfig::llama2_7b() };
        let kernels = AuKernels::for_platform(&spec);
        let grants = grants(&spec);
        let mut pricer = IterationPricer::new(model.clone(), Precision::Bf16, kernels);
        let (mut batch, mut grant) = (1, 0);
        for (draw, new_batch, context, new_grant) in steps {
            let (phase, tokens, ctx) = match draw {
                0 => (Phase::Prefill, new_batch * context, &grants[new_grant]),
                1..=3 => {
                    (batch, grant) = (new_batch, new_grant);
                    (Phase::Decode, batch, &grants[grant])
                }
                _ => (Phase::Decode, batch, &grants[grant]),
            };
            let priced = pricer.price(phase, tokens, context, ctx);
            let mut pmu = PmuCounters::new();
            let full = iteration_cost(&model, phase, tokens, context,
                Precision::Bf16, &kernels, ctx, &mut pmu);
            prop_assert_eq!(cost_bits(&priced), cost_bits(&full),
                "{} {} x {} on grant {:?}", phase, tokens, context, ctx);
        }
    }
}
