#!/usr/bin/env python3
"""Transport the six-coordinate a3 image across a braid window and verify it.

Builds the free-mode images for the two sequence openings 123121 and
123212 (read i_1 first), checks both against breadth-first enumeration,
and maps one onto the other through the window at positions 4,5,6.

Usage: python scripts/a3_transport_demo.py [depth]
"""

import sys

from crystalpoly import (
    BraidContext,
    IndexSequence,
    SequenceCrystal,
    get_builtin,
    transport,
)


def main():
    depth = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    cartan = get_builtin("a3").cartan
    iota1 = IndexSequence((1, 2, 3, 1, 2, 1), 3)
    iota0 = IndexSequence((1, 2, 3, 2, 1, 2), 3)
    source = SequenceCrystal(cartan, iota1)
    target = SequenceCrystal(cartan, iota0)
    ctx = BraidContext.from_cartan(cartan, 1, 2)

    src_nodes = source.bfs(depth).node_set()
    dst_nodes = target.bfs(depth).node_set()
    print(f"depth {depth}: {len(src_nodes)} elements on each side")

    mapped = {transport(ctx, iota1, node, (4, 5, 6)) for node in src_nodes}
    print("transport is a bijection onto the other image:", mapped == dst_nodes)

    sample = sorted(src_nodes, key=lambda n: (n.total, n.coords))[:8]
    print("sample of the transport:")
    for node in sample:
        image = transport(ctx, iota1, node, (4, 5, 6))
        print(f"  {node.label():>22}  ->  {image.label()}")


if __name__ == "__main__":
    main()
