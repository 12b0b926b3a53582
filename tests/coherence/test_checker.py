"""Unit tests for the memory-model checker: its primitives, and its
refusal to audit a cluster built without tracing."""

import pytest

from repro.api import Cluster, ClusterConfig
from repro.coherence.checker import contains_aba, is_subsequence


def test_is_subsequence_basics():
    assert is_subsequence([], [1, 2, 3])
    assert is_subsequence([1, 3], [1, 2, 3])
    assert is_subsequence([1, 2, 3], [1, 2, 3])
    assert not is_subsequence([3, 1], [1, 2, 3])
    assert not is_subsequence([1, 4], [1, 2, 3])
    assert not is_subsequence([1], [])


def test_is_subsequence_with_duplicates():
    assert is_subsequence([2, 2], [2, 1, 2])
    assert not is_subsequence([2, 2, 2], [2, 1, 2])


def test_contains_aba_finds_121():
    hit = contains_aba([1, 2, 1])
    assert hit is not None
    value, between, index = hit
    assert value == 1
    assert between == (2,)
    assert index == 2


def test_contains_aba_clean_sequences():
    assert contains_aba([]) is None
    assert contains_aba([1]) is None
    assert contains_aba([1, 2, 3]) is None
    assert contains_aba([1, 1, 2, 2]) is None  # consecutive repeats fine


def test_contains_aba_longer_gap():
    assert contains_aba([5, 7, 9, 5]) is not None


def test_contains_aba_repeated_run_not_flagged():
    # 1,2,2,1 is still A..B..A.
    assert contains_aba([1, 2, 2, 1]) is not None
    # 1,1,1 never flagged.
    assert contains_aba([1, 1, 1]) is None


# -- the checker on a cluster ---------------------------------------------


def _two_eager_writers(trace: bool):
    """Figure 2's run: two eager writers and an observer replicate one
    page homed at node 0; the copies diverge."""
    cluster = Cluster(ClusterConfig(n_nodes=4, protocol="eager", trace=trace))
    seg = cluster.alloc_segment(home=0, pages=1, name="page")
    contexts = []
    for node, value in ((1, 111), (2, 222)):
        proc = cluster.create_process(node=node, name=f"w{node}")
        base = proc.map(seg, mode="replica")

        def program(p, base=base, value=value):
            yield p.store(base, value)

        contexts.append(cluster.start(proc, program))
    cluster.create_process(node=3, name="obs").map(seg, mode="replica")
    cluster.run(join=contexts)
    return cluster


def test_trace_reading_checks_refuse_a_cluster_without_tracing():
    """With tracing off no ``apply`` event is recorded, so a check that
    reads them would find no violation in a run that has one: it
    raises instead, and ``stats(check_coherence=True)`` with it.  The
    backend check needs no trace and finds the divergence either way."""
    traced = _two_eager_writers(trace=True)
    checker = traced.checker()
    assert len(checker.subsequence_violations()) == 1
    (key,) = checker.keys_touched()
    assert checker.divergent_words(traced.backends(), words_per_page=1)

    untraced = _two_eager_writers(trace=False)
    checker = untraced.checker()
    for check in (checker.subsequence_violations, checker.keys_touched,
                  lambda: checker.aba_observations(3),
                  lambda: checker.applied_values(3, key)):
        with pytest.raises(ValueError, match=r"ClusterConfig\(trace=True\)"):
            check()
    with pytest.raises(ValueError, match=r"ClusterConfig\(trace=True\)"):
        untraced.stats(check_coherence=True)
    assert checker.divergent_words(untraced.backends(), words_per_page=1)
