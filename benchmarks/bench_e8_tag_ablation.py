"""E8 -- Ablation: the (f+1)-th-highest tag rule vs naive max.

Fig 1 line 4 has writers adopt the ``(f+1)``-th highest tag from their
``get-tag`` quorum.  The obvious alternative -- take the maximum, as
crash-only ABD does -- lets a single Byzantine server inflate every
subsequent tag without bound ("incorrect timestamp values", Section II-A).

The experiment runs a chain of writes against ``f`` tag-forging servers
under both selection rules and reports the final tag number.  With the
paper's rule the tag grows by exactly 1 per write; with max-selection it
absorbs the forged boost on every write.
"""

from typing import Optional

from repro.core.register import RegisterSystem
from repro.metrics import format_table
from repro.sim.delays import ConstantDelay

from benchmarks.conftest import emit

NUM_WRITES = 5
BOOST = 1000
#: The ablated writer: the shared write walk with tag rank 1, i.e. the
#: *maximum* tag (no Byzantine filtering), as crash-only ABD takes it.
MAX_TAG_RANK = 1


def chain_of_writes(rank: Optional[int] = None) -> int:
    """Run NUM_WRITES sequential writes, each taking the ``rank``-th
    highest tag (``None``: the paper's ``f + 1``); returns the final tag
    number."""
    system = RegisterSystem("bsr", f=1, seed=1,
                            delay_model=ConstantDelay(0.5),
                            byzantine={0: "forge_tag"})
    for i in range(NUM_WRITES):
        system.write(f"w{i}".encode(), writer=0, at=i * 10.0)
        if rank is not None:
            entry = system.clients["w000"]._pending[-1]

            def ablated_factory(original=entry[2]):
                op = original()
                op.rank = rank
                return op

            system.clients["w000"]._pending[-1] = (
                entry[0], entry[1], ablated_factory, entry[3],
            )
    system.run()
    return max(
        (w.value.num for w in system.handles if w.kind == "write" and w.done),
        default=0,
    )


def run_experiment():
    paper_rule = chain_of_writes()
    max_rule = chain_of_writes(MAX_TAG_RANK)
    return paper_rule, max_rule


def test_e8_tag_selection_ablation(benchmark, once_per_session):
    paper_rule, max_rule = benchmark(run_experiment)
    if "e8" not in once_per_session:
        once_per_session.add("e8")
        emit(format_table(
            ("selection rule", f"final tag num after {NUM_WRITES} writes",
             "growth per write"),
            [
                ("(f+1)-th highest (paper)", paper_rule,
                 paper_rule / NUM_WRITES),
                ("max (ablation)", max_rule, max_rule / NUM_WRITES),
            ],
            title="E8: tag inflation under one tag-forging Byzantine server",
        ))
    # Paper's rule: tags advance by exactly one per write.
    assert paper_rule == NUM_WRITES
    # Max rule: the forged boost (~1e6 per ForgeTagBehavior default) is
    # absorbed into the tag chain -- unbounded inflation.
    assert max_rule > 1_000_000
