"""Seeded workload inputs, built before any timing starts.

Every input leaves this module as plain data: a graph document in the
``graph_to_dict`` wire form, a rule-set document in the ``RuleSet.to_dict``
form, and update batches as ``update_to_list`` lists.  The program under
test only ever receives these documents (or ``Graph`` objects built from
them inside a timed set-up step).
"""

from __future__ import annotations

import random

#: Knowledge-base shape of ``run_parallel_speedup`` (Exp-4): typed entities with
#: numeric facts, skewed by four hub entities that attract half the links.
KB_SHAPE = dict(
    num_entity_types=6,
    num_value_relations=5,
    num_link_relations=4,
    values_per_entity=3,
    links_per_entity=3.0,
    error_rate=0.05,
    hub_link_fraction=0.5,
    num_hubs=4,
)
KB_RULES = 36
KB_MAX_DIAMETER = 5
KB_RULE_SEED = 2

#: One rule, five premise literals (two arithmetic) and an arithmetic
#: conclusion with a division: literal evaluation dominates the search.
MARKETPLACE_RULES = {
    "name": "literal-heavy",
    "rules": [
        {
            "name": "ce1",
            "pattern": {
                "name": "Qce",
                "nodes": [["x", "product"], ["y", "product"], ["z", "seller"]],
                "edges": [["x", "y", "variant"], ["z", "x", "sells"]],
            },
            "premise": "x.price > 0, y.price > 0, z.rating >= 1, "
            "|(x.price - y.price)| <= 400, (x.price + y.price) <= 600",
            "conclusion": "(x.price * 4) >= (y.price + (z.rating / 2))",
        }
    ],
}


def kb_inputs(entities: int, seed: int) -> tuple[dict, dict]:
    """Return (graph document, rule-set document) of a skewed knowledge base."""
    from repro.datasets.kb import KBConfig, knowledge_graph
    from repro.datasets.rules import benchmark_rules
    from repro.graph.io import graph_to_dict

    config = KBConfig(name="kb", num_entities=entities, seed=seed, **KB_SHAPE)
    graph = knowledge_graph(config)
    rules = benchmark_rules(graph, count=KB_RULES, max_diameter=KB_MAX_DIAMETER, seed=KB_RULE_SEED)
    return graph_to_dict(graph), rules.to_dict()


def marketplace_inputs(products: int, sellers: int, seed: int) -> tuple[dict, dict]:
    """Return (graph document, rule-set document) of the product/seller graph."""
    rng = random.Random(seed)
    nodes = [
        {"id": f"p{index}", "label": "product", "attributes": {"price": rng.randint(1, 400)}}
        for index in range(products)
    ]
    nodes += [
        {"id": f"s{index}", "label": "seller", "attributes": {"rating": rng.randint(0, 5)}}
        for index in range(sellers)
    ]
    edges = []
    seen: set = set()
    for _ in range(products * 4):
        pair = (rng.randrange(products), rng.randrange(products))
        if pair[0] != pair[1] and pair not in seen:
            seen.add(pair)
            edges.append({"source": f"p{pair[0]}", "target": f"p{pair[1]}", "label": "variant"})
    for _ in range(sellers * 30):
        key = ("s", rng.randrange(sellers), rng.randrange(products))
        if key not in seen:
            seen.add(key)
            edges.append({"source": f"s{key[1]}", "target": f"p{key[2]}", "label": "sells"})
    return {"name": "marketplace", "nodes": nodes, "edges": edges}, MARKETPLACE_RULES


def update_stream(graph_document: dict, count: int, size: int, seed: int) -> list[list[dict]]:
    """Return ``count`` consecutive update batches, each valid on the graph the
    previous ones produce (|ΔG| = ``size``, half insertions, half deletions)."""
    from repro.graph.io import graph_from_dict, update_to_list
    from repro.graph.updates import UpdateGenerator, apply_update

    graph = graph_from_dict(graph_document)
    generator = UpdateGenerator(seed=seed)
    batches = []
    for _ in range(count):
        delta = generator.generate(graph, size, insert_ratio=0.5)
        batches.append(update_to_list(delta))
        apply_update(graph, delta, in_place=True)
    return batches


def replay(graph_document: dict, batches: list[list[dict]]):
    """Rebuild ``G ⊕ ΔG1 ⊕ … ⊕ ΔGk`` in the benchmark process."""
    from repro.graph.io import graph_from_dict, update_from_list
    from repro.graph.updates import apply_update

    graph = graph_from_dict(graph_document)
    for batch in batches:
        apply_update(graph, update_from_list(batch), in_place=True)
    return graph
