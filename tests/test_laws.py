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
    "junc_fusion\tpass\t1.110e-16\t25",
    "junc_equality\tpass\t0.000e+00\t25",
    "junc_absorption\tpass\t5.551e-17\t25",
    "split_converse\tpass\t0.000e+00\t25",
    "for_universal\tpass\t5.551e-17\t25",
    "divide_conquer\tpass\t4.441e-16\t25",
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
    "choice_fusion\tpass\t1.665e-16\t25",
    "choice_exchange\tpass\t0.000e+00\t25",
    "base_choice\tpass\t1.596e-16\t25",
    "fold_fusion\tpass\t4.539e-16\t25",
    "cata_universal\tpass\t1.110e-16\t25",
    "unzip_naturality\tpass\t0.000e+00\t25",
    "unzip_corollary\tpass\t0.000e+00\t25",
    "pairing_absorption\tpass\t2.220e-16\t25",
    "khatri_fusion_sharp\tpass\t0.000e+00\t25",
    "khatri_fusion_nonsharp\texpected-fail\t5.669e-02\t25",
    "unzip_comp\tpass\t0.000e+00\t25",
    "unzip_sum\tpass\t0.000e+00\t25",
    "banana_split\tpass\t3.643e-16\t25",
    "mutual_recursion\tpass\t3.386e-15\t25",
    "mutual_recursion_fib\texpected-fail\t5.653e-01\t1",
]
NONSHARP_WITNESS = "\n".join([
    "M: Range(n=6) -> Range(n=3)",
    "0.36014761957154917,0.3074704209369117,0.11783428922105892,"
    "0.21739310054329644,0.1034490369818057,0.6343431936078964",
    "0.2290932384408317,0.15505855520238507,0.680657983133742,"
    "0.13730183864234813,0.44018773231451175,0.11945294395135671",
    "0.41075914198761915,0.5374710238607032,0.2015077276451991,"
    "0.6453050608143555,0.4563632307036825,0.24620386244074693",
    "",
    "N: Range(n=6) -> Range(n=2)",
    "0.8818202489863222,0.4242530232009318,0.4790673967233172,"
    "0.34562733100369164,0.5928056780004486,0.635148283033491",
    "0.11817975101367785,0.5757469767990682,0.5209326032766828,"
    "0.6543726689963083,0.40719432199955147,0.3648517169665089",
    "",
    "h: Range(n=3) -> Range(n=6)",
    "0.012366300171831627,0.2118093363203647,0.2328339376264709",
    "0.04713128106442534,0.031124484462234717,0.2016017396860232",
    "0.2749932393932795,0.1115912218636352,0.17006740664038356",
    "0.16698964929052523,0.20613783023276758,0.2322886003458903",
    "0.34310388783413304,0.19547486500727504,0.03250062332545767",
    "0.1554156422458051,0.24386226211372283,0.13070769237577426",
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
           ("tol", math.inf), ("tol", math.nan)]
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
_REPORT_DIGESTS = [
    (SMALL, "f2adecfba284633150fb80c3f441398875087d7dfd9b4ad40a1606633de0a9c7"),
    (TrialConfig(seed=7, trials=50, max_dim=3, tol=1e-9),
     "16399015c05c472affdc6e912577f73d15fe568946df72089cd4ded41c2cd610"),
    (TrialConfig(seed=7, trials=50, max_dim=12, tol=1e-9),
     "c70443a6283e12bf17959e007fa1460fb634943bce94bd3594e3676543a221fe"),
]


@pytest.mark.parametrize("cfg, expected", _REPORT_DIGESTS)
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
