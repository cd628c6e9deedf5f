"""Law-checker tests: determinism, generators, statuses, the risk preorder."""

import hashlib
import math
import time

import numpy as np
import pytest

from probfold.cases import CaseParams, run_case
from probfold.dims import Range
from probfold.dist import DomainError
from probfold.laws import (
    CATALOGUE,
    TrialConfig,
    UnknownLawError,
    check_all,
    check_law,
    random_cs_matrix,
    random_sharp,
    risk_preorder,
)
from probfold.matrix import DimensionError, from_probfn, from_sharp_fn, identity

SMALL = TrialConfig(seed=1, trials=25, max_dim=6, tol=1e-9)

# Report lines at SMALL, which the catalogue reproduces digit for digit;
# mutual_recursion_fib is a fixed instance and reports one trial.
SMALL_LINES = [
    "compose_mult\tpass\t1.110e-16\t25",
    "junc_fusion\tpass\t5.551e-17\t25",
    "junc_equality\tpass\t0.000e+00\t25",
    "junc_absorption\tpass\t1.110e-16\t25",
    "split_converse\tpass\t0.000e+00\t25",
    "for_universal\tpass\t6.661e-16\t25",
    "divide_conquer\tpass\t2.220e-16\t25",
    "khatri_def\tpass\t0.000e+00\t25",
    "kron_def\tpass\t0.000e+00\t25",
    "vec_khatri_kron\tpass\t0.000e+00\t25",
    "exchange\tpass\t0.000e+00\t25",
    "pairwise_equality\tpass\t0.000e+00\t25",
    "cancellation\tpass\t2.220e-16\t25",
    "weak_product\texpected-fail\t2.400e-01\t25",
    "reflection\tpass\t0.000e+00\t25",
    "index_rules\tpass\t2.220e-16\t25",
    "facts_27_28\tpass\t2.220e-16\t25",
    "sharp_reconstruction\tpass\t1.110e-16\t25",
    "choice_fusion\tpass\t1.110e-16\t25",
    "choice_exchange\tpass\t0.000e+00\t25",
    "base_choice\tpass\t1.110e-16\t25",
    "fold_fusion\tpass\t3.752e-16\t25",
    "cata_universal\tpass\t1.110e-16\t25",
    "unzip_naturality\tpass\t0.000e+00\t25",
    "unzip_corollary\tpass\t0.000e+00\t25",
    "pairing_absorption\tpass\t2.220e-16\t25",
    "khatri_fusion_sharp\tpass\t0.000e+00\t25",
    "khatri_fusion_nonsharp\texpected-fail\t5.667e-02\t25",
    "unzip_comp\tpass\t0.000e+00\t25",
    "unzip_sum\tpass\t0.000e+00\t25",
    "banana_split\tpass\t2.567e-16\t25",
    "mutual_recursion\tpass\t2.678e-15\t25",
    "mutual_recursion_fib\texpected-fail\t5.653e-01\t1",
]
NONSHARP_WITNESS = "\n".join([
    "M: Range(n=5) -> Range(n=3)",
    "0.34599918903853066,0.28548757924431406,0.7371306037892399,0.11489501691869024,0.42783073591547194",
    "0.27861009852038043,0.5868462824367928,0.011870282508601383,0.30373004650072494,0.18969894413305952",
    "0.37539071244108896,0.12766613831889306,0.2509991137021587,0.5813749365805848,0.38247031995146846",
    "",
    "N: Range(n=5) -> Range(n=2)",
    "0.2864396143646659,0.2143128110431417,0.4917169216148484,0.45262401985989464,0.6103856238118406",
    "0.7135603856353342,0.7856871889568582,0.5082830783851516,0.5473759801401054,0.3896143761881593",
    "",
    "h: Range(n=3) -> Range(n=5)",
    "0.2063034580639727,0.2729743100441162,0.2994996685587686",
    "0.31961548722743954,0.3950063693068332,0.30619124592681857",
    "0.14544719707510345,0.037135428325131246,0.21089621993525295",
    "0.09437321733704471,0.12888488053977726,0.1376584015792882",
    "0.23426064029643956,0.1659990117841421,0.045754463999871854",
    "",
])


def test_trial_config_validation():
    with pytest.raises(DomainError):
        TrialConfig(trials=0)
    with pytest.raises(DomainError):
        TrialConfig(max_dim=1)
    with pytest.raises(DomainError):
        TrialConfig(max_dim=13)
    with pytest.raises(DomainError):
        TrialConfig(tol=0.0)
    bad = [("trials", True), ("trials", 2.5), ("seed", 1.5), ("seed", True), ("max_dim", 6.5),
           ("tol", math.inf), ("tol", math.nan), ("tol", True)]
    for field, value in bad:
        with pytest.raises(DomainError, match=f"^{field} "):
            TrialConfig(**{field: value})


def test_generators_meet_their_contracts():
    rng = np.random.default_rng(42)
    for _ in range(100):
        cols, rows = Range(int(rng.integers(1, 7))), Range(int(rng.integers(1, 7)))
        assert random_cs_matrix(rng, cols, rows).is_column_stochastic(1e-12)
        assert random_sharp(rng, cols, rows).is_sharp()


def test_generator_seed_reproducibility():
    a = random_cs_matrix(np.random.default_rng(123), Range(4), Range(5))
    b = random_cs_matrix(np.random.default_rng(123), Range(4), Range(5))
    assert np.array_equal(a.data, b.data)


def test_unknown_law_rejected():
    with pytest.raises(UnknownLawError):
        check_law("no_such_law", SMALL)


def test_reports_are_deterministic_for_a_fixed_seed():
    first = check_all(SMALL)
    second = check_all(SMALL)
    assert first == second
    assert [r.line() for r in first] == SMALL_LINES
    assert {r.law: r for r in first}["khatri_fusion_nonsharp"].witness == NONSHARP_WITNESS
    shuffled = [check_law(name, SMALL) for name in reversed(list(CATALOGUE))]
    assert {r.law: r for r in shuffled} == {r.law: r for r in first}


def test_single_trial_smoke_run_is_fast():
    cfg = TrialConfig(seed=9, trials=1, max_dim=6, tol=1e-9)
    start = time.monotonic()
    reports = check_all(cfg)
    assert time.monotonic() - start < 1.0
    assert all(r.trials == 1 for r in reports)


def test_concurrent_execution_does_not_change_reports():
    from concurrent.futures import ThreadPoolExecutor

    cfg = TrialConfig(seed=5, trials=5, max_dim=5, tol=1e-9)
    serial = {name: check_law(name, cfg) for name in CATALOGUE}
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = dict(zip(CATALOGUE, pool.map(lambda n: check_law(n, cfg), CATALOGUE)))
    assert serial == parallel


def test_exchange_law_passes():
    rep = check_law("exchange", TrialConfig(seed=1, trials=100, max_dim=6, tol=1e-9))
    assert rep.status == "pass"
    assert rep.max_dev <= 1e-9
    assert rep.witness is None


def test_weak_product_expected_fail_with_fixed_witness():
    rep = check_law("weak_product", SMALL)
    assert rep.status == "expected-fail"
    assert rep.max_dev >= 0.2
    assert rep.witness is not None and "0.4,0.2" in rep.witness


def test_khatri_fusion_statuses():
    sharp = check_law("khatri_fusion_sharp", SMALL)
    assert sharp.status == "pass"
    nonsharp = check_law("khatri_fusion_nonsharp", SMALL)
    assert nonsharp.status == "expected-fail"
    assert nonsharp.witness is not None
    # every instance violates the non-sharp law, even one trial at the smallest dims
    for seed in range(1, 21):
        one = check_law("khatri_fusion_nonsharp", TrialConfig(seed=seed, trials=1, max_dim=2))
        assert (one.status, one.violations) == ("expected-fail", 1)


def test_mutual_recursion_statuses():
    assert check_law("mutual_recursion", SMALL).status == "pass"
    fib = check_law("mutual_recursion_fib", SMALL)
    assert fib.status == "expected-fail"
    assert fib.max_dev >= 0.01


def test_laws_catch_a_broken_combinator(monkeypatch):
    # mutation check: corrupt a combinator's entries (same dims, still CS)
    # inside the law module; its definitional law and a law built on it must
    # go red
    import probfold.laws as laws_mod
    from probfold.matrix import Matrix

    cfg = TrialConfig(seed=1, trials=5, max_dim=6, tol=1e-9)
    for name, definition, user in [("khatri", "khatri_def", "cancellation"),
                                   ("kron", "kron_def", "pairing_absorption")]:
        real = getattr(laws_mod, name)

        def corrupted(m, n, real=real):
            k = real(m, n)
            data = k.data ** 2
            return Matrix(k.col_dim, k.row_dim, data / data.sum(axis=0, keepdims=True))

        with monkeypatch.context() as patch:
            patch.setattr(laws_mod, name, corrupted)
            assert check_law(definition, cfg).status == "fail"
            broken = check_law(user, cfg)
            assert broken.status == "fail"
            assert broken.witness is not None
        assert check_law(definition, cfg).status == "pass"


def test_report_line_format():
    rep = check_law("reflection", TrialConfig(seed=1, trials=2, max_dim=4, tol=1e-9))
    law, status, dev, trials = rep.line().split("\t")
    assert law == "reflection" and status == "pass" and trials == "2"
    float(dev)


# --- risk preorder -----------------------------------------------------------------

def _fib_matrices(p):
    fib = [0, 1, 1, 2, 3, 5, 8]
    inputs, outputs = Range(7), Range(9)
    g = from_probfn(lambda n: run_case("mfib", CaseParams(p=p, input=n)), inputs, outputs)
    h = from_probfn(lambda n: run_case("mfibl", CaseParams(p=p, input=n)), inputs, outputs)
    f = from_sharp_fn(lambda n: fib[n], inputs, outputs)
    return g, h, f


def test_risk_preorder_requires_sharp_reference():
    g, h, f = _fib_matrices(0.1)
    with pytest.raises(DomainError):
        risk_preorder(g, h, g)
    with pytest.raises(DimensionError):
        risk_preorder(identity(Range(2)), identity(Range(2)), from_sharp_fn(lambda n: n, Range(3), Range(3)))


def test_risk_preorder_reflexive_and_bounded_by_reference():
    g, h, f = _fib_matrices(0.1)
    assert risk_preorder(g, g, f).dominates
    assert risk_preorder(g, f, f).dominates
    rng = np.random.default_rng(2024)
    for _ in range(100):
        cols, rows = Range(int(rng.integers(1, 6))), Range(int(rng.integers(2, 6)))
        sharp = random_sharp(rng, cols, rows)
        approx = random_cs_matrix(rng, cols, rows)
        assert risk_preorder(approx, sharp, sharp).dominates


def test_risk_preorder_transitive_on_random_triples():
    rng = np.random.default_rng(77)
    for _ in range(200):
        cols, rows = Range(int(rng.integers(1, 6))), Range(int(rng.integers(2, 6)))
        f = random_sharp(rng, cols, rows)
        g, h, k = (random_cs_matrix(rng, cols, rows) for _ in range(3))
        gh = risk_preorder(g, h, f).dominates
        hk = risk_preorder(h, k, f).dominates
        if gh and hk:
            assert risk_preorder(g, k, f).dominates


def test_linear_fib_dominates_recursive_fib():
    g, h, f = _fib_matrices(0.1)
    rep = risk_preorder(g, h, f)
    assert rep.dominates
    by_input = {col.input: col for col in rep.columns}
    assert by_input[5].g_mass == pytest.approx(0.6561, abs=1e-12)
    assert by_input[5].h_mass == pytest.approx(0.729, abs=1e-12)


def test_negative_seed_is_accepted_and_deterministic():
    cfg = TrialConfig(seed=-7, trials=2, max_dim=4, tol=1e-9)
    assert check_law("reflection", cfg) == check_law("reflection", cfg)


# --- full-precision reports ------------------------------------------------------

# SHA-256 of the full-precision repr of every law's worst deviation, with its
# status and witness, in catalogue order: any drift in a last digit fails.
# The test ids name the configurations, so a re-pin keeps each test's name.
_REPORT_DIGESTS = [
    (SMALL, "e34c8f13e0644ef1cc1da572f100414440fd7affd15600a9d8cca982a11a71d0"),
    (TrialConfig(seed=7, trials=50, max_dim=3, tol=1e-9),
     "39ab8a250f6aa5ce6ed837f4957c35ca79ee200cb183aa512676b73f849b7817"),
    (TrialConfig(seed=7, trials=50, max_dim=12, tol=1e-9),
     "06045723dd9edfa7c7c83b49ca0a17adb91a6f2cf14a683532e191e1464e7767"),
]


@pytest.mark.parametrize("cfg, expected", _REPORT_DIGESTS,
                         ids=["small", "seed7-dim3", "seed7-dim12"])
def test_every_law_report_is_bit_identical_to_the_recorded_one(cfg, expected):
    h = hashlib.sha256()
    for r in check_all(cfg):
        h.update(repr((r.law, repr(r.max_dev), r.status, r.witness)).encode())
    assert h.hexdigest() == expected


# --- violation counts ----------------------------------------------------------

def test_a_passing_law_reports_no_violations():
    reports = {r.law: r for r in check_all(SMALL)}
    for line in SMALL_LINES:
        law, status = line.split("\t")[:2]
        if status == "pass":
            assert reports[law].violations == 0
    # each of the weak product's random trials and its fixed counterexample
    assert reports["weak_product"].violations == SMALL.trials + 1


def test_a_broken_combinator_violates_every_trial(monkeypatch):
    import probfold.laws as laws_mod
    from probfold.matrix import Matrix

    cfg = TrialConfig(seed=1, trials=5, max_dim=6, tol=1e-9)
    real = laws_mod.kron

    def corrupted(m, n):
        k = real(m, n)
        data = k.data ** 2
        return Matrix(k.col_dim, k.row_dim, data / data.sum(axis=0, keepdims=True))

    monkeypatch.setattr(laws_mod, "kron", corrupted)
    report = check_law("kron_def", cfg)
    assert report.violations == report.trials == cfg.trials
    assert report.line() == f"kron_def\tfail\t{report.max_dev:.3e}\t5"


# --- stream keys -----------------------------------------------------------------

def test_reports_do_not_depend_on_the_catalogue_order(monkeypatch):
    # each law's stream is keyed by its name: reversing the catalogue and
    # inserting a law before all the others reseeds none of them
    import probfold.laws as laws_mod

    cfg = TrialConfig(seed=3, trials=5, max_dim=6, tol=1e-9)
    before = {name: check_law(name, cfg) for name in CATALOGUE}
    reordered = {"inserted_first": CATALOGUE["reflection"], **dict(reversed(CATALOGUE.items()))}
    monkeypatch.setattr(laws_mod, "CATALOGUE", reordered)
    assert {name: check_law(name, cfg) for name in before} == before
