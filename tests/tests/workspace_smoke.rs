//! Workspace smoke test: each of the five example binaries' core paths,
//! exercised as library calls with their headline verdicts asserted.
//!
//! The examples print these verdicts for humans; this test pins them so a
//! regression in any crate of the workspace shows up in `cargo test` without
//! having to run the binaries.

use local_decision::constructions::section2::{SmallInstancesProperty, SmallOrLargeProperty};
use local_decision::constructions::section3 as c3;
use local_decision::deciders::randomized::{failure_probability_bound, RandomizedGmrDecider};
use local_decision::deciders::section2 as s2;
use local_decision::deciders::section3 as s3;
use local_decision::local::simulation::ObliviousSimulation;
use local_decision::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SOURCE: FragmentSource = FragmentSource::WindowsAndDecoys;

/// `quickstart`: classic properties are decided Id-obliviously, and a single
/// bad node flips the global verdict.
#[test]
fn quickstart_proper_coloring_verdicts() {
    let checker = FnOblivious::new("proper-3-colouring", 1, |view: ObliviousViewRef<u32>| {
        let mine = *view.center_label();
        let ok = mine < 3
            && view
                .neighbors_of_center()
                .all(|u| *view.label(u) != mine && *view.label(u) < 3);
        Verdict::from_bool(ok)
    });

    let good = LabeledGraph::new(generators::cycle(6), vec![0u32, 1, 2, 0, 1, 2]).unwrap();
    let input = Input::with_consecutive_ids(good).unwrap();
    assert!(decision::run_oblivious(&input, &checker).accepted());

    let bad = LabeledGraph::new(generators::cycle(6), vec![0u32, 1, 2, 0, 1, 1]).unwrap();
    let input = Input::with_consecutive_ids(bad).unwrap();
    let outcome = decision::run_oblivious(&input, &checker);
    assert!(!outcome.accepted());
}

/// `relationship_table`: all three witnessed cells of the Section 1.1 table
/// come out as the paper states (separation under (B) and under (C), no
/// separation without either switch).
#[test]
fn relationship_table_cells() {
    let params = Section2Params::new(1, IdBound::identity_plus(2)).unwrap();

    // (B): the Id-based decider decides P while Id-oblivious candidates fail.
    let inputs = s2::experiment_inputs(&params, 8).unwrap();
    let id_ok = decision::check_decides(
        &SmallInstancesProperty::new(params.clone()),
        &IdBasedDecider::new(params.clone()),
        &inputs,
    )
    .all_correct();
    let oblivious_fails =
        s2::oblivious_candidate_fails(&params, &StructureVerifier::new(params.clone()), 8).unwrap();
    assert!(id_ok, "Section 2 Id-based decider must decide P");
    assert!(oblivious_fails, "Section 2 oblivious candidates must fail");

    // (C): Theorem 2's experiment separates on the machine zoo.
    let machines = vec![
        zoo::halts_with_output(1, Symbol(0)),
        zoo::halts_with_output(6, Symbol(1)),
    ];
    let (id_ok, failing) = s3::theorem2_experiment(&machines, 1, 10_000, SOURCE, &[2]).unwrap();
    assert!(
        id_ok,
        "Theorem 2 Id-based decider must be correct on the zoo"
    );
    assert_eq!(failing, vec![2], "the fuel-2 oblivious candidate must err");

    // (¬B, ¬C): the simulation A* reproduces an Id-reading algorithm.
    let inner = FnLocal::new("ids-below-1000", 1, |view: ViewRef<u8>| {
        Verdict::from_bool(view.max_id().unwrap_or(0) < 1_000)
    });
    let simulated = ObliviousSimulation::new(inner, 8);
    let labeled = LabeledGraph::uniform(generators::cycle(8), 0u8);
    let input = Input::with_consecutive_ids(labeled).unwrap();
    assert!(decision::run_oblivious(&input, &simulated).accepted());
}

/// `section2_separation`: P' ∈ LD*, P ∈ LD, P ∉ LD*, and the Figure 1
/// promise problem behaves as printed.
#[test]
fn section2_separation_verdicts() {
    let params = Section2Params::new(1, IdBound::identity_plus(2)).unwrap();
    let inputs = s2::experiment_inputs(&params, 10).unwrap();
    let verifier = StructureVerifier::new(params.clone());
    let id_decider = IdBasedDecider::new(params.clone());

    let p_prime = SmallOrLargeProperty::new(params.clone());
    let report = decision::check_decides_oblivious(&p_prime, &verifier, &inputs);
    assert_eq!(report.correct.len(), report.total(), "P' must be in LD*");

    let p = SmallInstancesProperty::new(params.clone());
    let report = decision::check_decides(&p, &id_decider, &inputs);
    assert_eq!(report.correct.len(), report.total(), "P must be in LD");

    assert!(
        s2::oblivious_candidate_fails(&params, &verifier, 10).unwrap(),
        "P must not be in LD*"
    );

    // The promise problem on cycles: correct for every r, and views become
    // indistinguishable once the cycles are long enough relative to the
    // radius (r = 5 is still distinguishable at radius 2, r = 9 is not).
    let bound = IdBound::linear(3, 0);
    let decider = s2::PromiseIdDecider::new(bound.clone());
    for (r, indistinguishable) in [(5u64, false), (9, true)] {
        let yes = local_decision::constructions::section2::promise::yes_instance(r).unwrap();
        let no = local_decision::constructions::section2::promise::no_instance(r, &bound, 100_000)
            .unwrap();
        let yes_n = yes.node_count();
        let no_n = no.node_count();
        let yes_input = Input::new(yes, IdAssignment::consecutive_from(yes_n, 1)).unwrap();
        let no_input = Input::new(no, IdAssignment::consecutive_from(no_n, 1)).unwrap();
        assert!(decision::run_local(&yes_input, &decider).accepted());
        assert!(!decision::run_local(&no_input, &decider).accepted());
        assert_eq!(
            s2::promise_views_indistinguishable(r, &bound, 2, 100_000).unwrap(),
            indistinguishable
        );
    }
}

/// `section3_separation`: the two-stage Id decider matches ground truth on
/// the zoo, fuel-bounded oblivious candidates err, and the separation
/// algorithm `R` halts even on a non-halting machine.
#[test]
fn section3_separation_verdicts() {
    let machines = vec![
        zoo::halts_with_output(1, Symbol(0)),
        zoo::halts_with_output(4, Symbol(0)),
        zoo::halts_with_output(4, Symbol(1)),
        zoo::halts_with_output(9, Symbol(1)),
    ];

    let id_decider = s3::TwoStageIdDecider::new(10_000);
    for spec in &machines {
        // Build G(M, 1) once and derive the input from it directly;
        // s3::gmr_input would re-run the whole construction.
        let instance = c3::build_gmr(&spec.machine, 1, 10_000, SOURCE).unwrap();
        assert!(instance.fragment_count() > 0);
        let n = instance.labeled().node_count();
        let input = Input::new(instance.into_labeled(), IdAssignment::consecutive(n)).unwrap();
        assert_eq!(
            decision::run_local(&input, &id_decider).accepted(),
            spec.in_l0(),
            "Id-based decider must match ground truth on G({}, 1)",
            spec.machine.name()
        );
    }

    // Some fuel-bounded candidate errs on some machine of the zoo.
    let candidate = s3::FuelBoundedObliviousCandidate::new(5);
    let erring = machines.iter().any(|spec| {
        let input = s3::gmr_input(&spec.machine, 1, 10_000, SOURCE).unwrap();
        decision::run_oblivious(&input, &candidate).accepted() != spec.in_l0()
    });
    assert!(erring, "a fuel-5 oblivious candidate must err on the zoo");

    let report = s3::separation_harness(&candidate, &machines, 1, SOURCE).unwrap();
    assert!(
        !report.rejected_l0.is_empty() || !report.accepted_l1.is_empty(),
        "the separation harness must record the candidate's mistakes"
    );
    assert!(
        s3::separation_algorithm(&candidate, &zoo::infinite_loop().machine, 1, SOURCE).unwrap(),
        "R must halt (and accept) on the right-forever machine"
    );
}

/// `randomised_decider`: one-sided error — yes-instances always accepted,
/// no-instances rarely, with the paper's failure bound shrinking in n.
#[test]
fn randomised_decider_rates() {
    let decider = RandomizedGmrDecider::new(1 << 20);
    let mut rng = StdRng::seed_from_u64(42);
    let trials = 40;

    let yes = zoo::halts_with_output(4, Symbol(0));
    let no = zoo::halts_with_output(4, Symbol(1));
    let yes_input = s3::gmr_input(&yes.machine, 1, 10_000, SOURCE).unwrap();
    let no_input = s3::gmr_input(&no.machine, 1, 10_000, SOURCE).unwrap();

    let yes_rate = decision::estimate_acceptance(&yes_input, &decider, trials, &mut rng);
    let no_rate = decision::estimate_acceptance(&no_input, &decider, trials, &mut rng);
    assert!(
        (yes_rate - 1.0).abs() < f64::EPSILON,
        "yes-instances must always be accepted (one-sided error), got {yes_rate}"
    );
    assert!(
        no_rate < 0.5,
        "no-instances must rarely be accepted, got {no_rate}"
    );

    let small = failure_probability_bound(yes_input.node_count());
    let large = failure_probability_bound(4 * yes_input.node_count());
    assert!(large < small, "the failure bound must shrink with n");
}
