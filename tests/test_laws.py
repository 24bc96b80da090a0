import concurrent.futures

import metricat.corpus
import metricat.laws
from metricat.corpus import CorpusConfig
from metricat.laws import LAWS, law_harness, law_report_to_json, run_law
from metricat.spaces import Space


class TestRegistry:
    def test_all_laws_registered(self):
        assert len(LAWS) == 28
        assert all("-" in law_id for law_id in LAWS)

    def test_fixture_law_never_vacuous(self):
        result = run_law("collapse-triple-verdicts", seed=3, trials=12)
        assert result.held == 12
        assert result.vacuous == 0
        assert result.ok


class TestHarness:
    def test_green_on_default_corpus(self):
        report = law_harness(seed=0, trials=12)
        assert report.ok, [r for r in report.results if not r.ok]
        assert len(report.results) == len(LAWS)
        # every law needs teeth: across the run each one must actually fire
        for r in report.results:
            assert r.held > 0, f"{r.law_id} never exercised its premise"

    def test_deterministic_by_seed(self):
        a = law_harness(seed=5, trials=6)
        b = law_harness(seed=5, trials=6)
        assert a == b
        c = law_harness(seed=6, trials=6)
        assert c.ok

    def test_worker_count_does_not_change_the_report(self):
        serial = law_harness(seed=2, trials=5)
        parallel = law_harness(seed=2, trials=5, workers=2)
        assert serial == parallel

    def test_results_sorted_by_law_id(self):
        report = law_harness(seed=1, trials=3)
        ids = [r.law_id for r in report.results]
        assert ids == sorted(ids)

    def test_corpus_config_changes_nothing(self):
        # every law draws from its own fixed corpora
        configured = law_harness(CorpusConfig(max_points=2), seed=0, trials=4)
        assert configured == law_harness(seed=0, trials=4)

    def test_pool_is_no_larger_than_the_law_count(self, monkeypatch):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        pooled = law_harness(seed=2, trials=2, workers=5000)
        assert law_harness(seed=2, trials=2, workers=3) == pooled
        assert sizes == [len(LAWS), 3]
        assert pooled == law_harness(seed=2, trials=2)


class TestDraws:
    def test_reports_do_not_depend_on_draw_identity(self, monkeypatch):
        # Equal draws share one Space.  With every draw a fresh copy instead,
        # no law may report differently: none reads identity.
        def reports():
            return [repr(run_law(law_id, seed, 120)) for seed in (0, 1) for law_id in sorted(LAWS)]

        shared = reports()
        draw = metricat.corpus.random_space

        def fresh(*args, **kwargs):
            s = draw(*args, **kwargs)
            return Space._validated(s.dist, s.labels)

        monkeypatch.setattr(metricat.corpus, "random_space", fresh)
        monkeypatch.setattr(metricat.laws, "random_space", fresh)
        assert reports() == shared


# The instance names each law reports after "trial" when it fails.
COUNTEREXAMPLE_KEYS = {
    "bare-purity-eps-monotone": "f eps_low eps_high family",
    "barely-pure-implies-double-mono": "f eps family",
    "bridged-leg-strict-extension": "f g subject eps apex",
    "collapse-triple-verdicts": "f eps",
    "dangling-copy-extension-equivalence": "f subject eps tolerant strict_on_glued",
    "eps-split-implies-bare-pure": "f eps family",
    "eps-split-implies-double-mono": "f eps family",
    "eps-split-implies-weak-pure": "f eps family",
    "gridwise-pure-composes": "f g family",
    "gridwise-pure-left-factor": "f g family",
    "homotopy-transfer-bare": "f nearby eps family",
    "homotopy-transfer-weak": "f nearby eps family",
    "inf-injectivity-via-hom-emptiness": "subject f tester direct",
    "injectives-closed-under-products": "k1 k2 eps tests",
    "injectives-closed-under-retracts": "retract ambient f eps",
    "injectivity-eps-monotone": "subject f eps_low eps_high",
    "mono-eps-monotone": "f eps_low eps_high family",
    "near-factor-bare": "f g h eps family",
    "near-factor-weak": "f g h eps family",
    "pure-composes": "f g eps family",
    "pure-implies-bare": "f eps family",
    "pure-implies-weak": "f eps family",
    "pure-left-factor": "f g eps family",
    "purity-family-monotone": "f eps variant family extra",
    "split-mono-is-eps-split": "section eps",
    "split-mono-is-pure": "section retraction eps family",
    "splitness-eps-monotone": "f eps_low eps_high",
    "weak-implies-bare-at-double": "f eps family",
}


def _flipped_on_two_by_two(tester, at):
    """``tester`` with its verdict negated when the map at position ``at``
    goes from two points to two points."""
    def flipped(*args, **kwargs):
        verdict, *rest = tester(*args, **kwargs)
        f = args[at]
        if f.dom.n == f.cod.n == 2:
            verdict = not verdict
        return (verdict, *rest)
    return flipped


class TestCounterexamples:
    def test_a_failure_reports_its_instance(self, monkeypatch):
        for name, at in (("purity", 0), ("is_eps_split", 0), ("is_eps_mono", 0),
                         ("is_eps_injective", 1)):
            tester = getattr(metricat.laws, name)
            monkeypatch.setattr(metricat.laws, name, _flipped_on_two_by_two(tester, at))
        assert sorted(COUNTEREXAMPLE_KEYS) == sorted(LAWS)
        unbroken = set()
        for law_id, names in COUNTEREXAMPLE_KEYS.items():
            failed = next((r for r in (run_law(law_id, seed, 120) for seed in range(10))
                           if r.failures), None)
            if failed is None:
                unbroken.add(law_id)
                continue
            assert tuple(failed.counterexample) == ("trial", *names.split()), law_id
        # the flip leaves these two: the products law flips premise and
        # conclusion together, and the collapse triple has no 2-by-2 map
        assert unbroken == {"collapse-triple-verdicts", "injectives-closed-under-products"}


class TestReportJson:
    def test_shape(self):
        report = law_harness(seed=9, trials=3)
        doc = law_report_to_json(report)
        assert doc["ok"] is True
        assert doc["seed"] == 9
        assert doc["trials_per_law"] == 3
        assert len(doc["results"]) == len(LAWS)
        entry = doc["results"][0]
        assert set(entry) == {
            "law", "trials", "held", "vacuous", "failures", "counterexample",
        }
        assert entry["held"] + entry["vacuous"] + entry["failures"] == 3
