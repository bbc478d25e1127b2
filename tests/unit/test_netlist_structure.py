"""Pins the exact structure of every netlist E9 builds.

A SHA-256 digest per netlist covers, in gate order, each gate's kind,
input nets in port order, delay (every gate's is one unit) and driven
net, then the primary inputs, the named outputs and every explicit net
name.  Any change to how the builders emit gates — a different gate,
order, input tuple or name — changes the digest, even when the settle
times that ``test_e9_circuit_timings_are_pinned`` checks stay the same.
"""

import hashlib

import pytest

from repro.circuits.cspp import build_copy_cspp
from repro.circuits.grid import GridNetwork, TreeGridNetwork
from repro.circuits.mux_ring import MuxRing
from repro.circuits.netlist import Netlist, _KINDS


def netlist_digest(nl: Netlist) -> str:
    h = hashlib.sha256()
    for code, ins, out in zip(nl._kind, nl._ins, nl._out):
        h.update(f"{_KINDS[code].name}({','.join(map(str, ins))})/1->{out};".encode())
    h.update(f"inputs={nl.inputs};".encode())
    h.update(f"outputs={sorted(nl.outputs.items())};".encode())
    h.update(f"names={sorted(nl._names.items())};".encode())
    return h.hexdigest()


BUILDERS = {
    # the four families repro.experiments.gate_depth builds
    "ring": lambda n: MuxRing(n, 1),
    "cspp": lambda n: build_copy_cspp(n, 1),
    "grid": lambda n: GridNetwork(n, n),
    "tgrid": lambda n: TreeGridNetwork(n, n),
    # off-default shapes: L != n, multi-bit values, 3 read ports
    "grid_p3": lambda n: GridNetwork(n, 7, reads_per_station=3, value_bits=2),
}

#: SHA-256 of each netlist's structure, per family and n in (4, 8, 16, 32)
DIGESTS = {
    "cspp": [
        "625a8d9762a04cea21abb73c6dfb9e03d93b52f28c1c0dbde1a8633cb49e743a",
        "9c6bd56300c1fca45e10ee2ccdb0188c03787e1c94891ed9524f7c646d454065",
        "e890a9c7a14808eab53d8a7443f46315c7559e003c1619d5cdb71437d10b420d",
        "b6c90bf5805ff54f14bdda75ad6203b40aeed5e70869c070175a051a4b13ab08",
    ],
    "grid": [
        "6f5de802d0601305151d5782c58a2d5f64ee487ea6002c010c6c1a661a5b2d25",
        "8df1269efce5138d4741351f6670a0d1288900ac2e34a3753fb5b3c5d05b5a6e",
        "49ea5df71d9b6d8513f6a5f1c2424bc8ecc021749d0b6f4970dcd91fe8dbb882",
        "18c874cc1c0ec26fcdaeffd77aece1beb7b1f675592c1e6131d0a1f09f9559f3",
    ],
    "grid_p3": [
        "cabef9c1a2b33860b8b49033981aa0bad4268c6c134acb3cbf575396e6378ef6",
        "ac07473c2b324539656ce85e37a36383eb8fa311d75804644ecb64e1fe190769",
        "9248a93c4fc3a91fe7049bdbc3fa36d366bd29d5ecd3c5a9248068ae6b24b0ee",
        "d443a42dd00ab314b3012ea021641067836ae25650a13ef7f37d07ea1292292c",
    ],
    "ring": [
        "5168ba6490911a1a001c9a7b1c93c2bf743291ba30a6fc2139b204a2b3a06fa1",
        "fbceed7769ecabca3446083ed68f7c16a423032388eed3febec8cbb9a0eb4d7f",
        "e1c34a25aceb81381c5e4c3e57aa9367a744ef8107c72f3e3594fb6977474f99",
        "838ee17088b4c872ab683c153b04f645fb8d173810fef5afb11bd7dfe263d0f1",
    ],
    "tgrid": [
        "744bb9f2f2541a2421f0969a6b6e5bcc215b74168e6ba1a6414431db34ff0ed3",
        "e4dfbf4ee9a419c597fde8d939c2be7874797513ff8f3195eb800ff65d76136a",
        "796f1fd0e891da4a348ac245dca98e82825a7398efa3541cc1fb5f45c33ee973",
        "07c299d99668b65ee5032ff8fd15693f1bea159d830af110a9def209c82efa64",
    ],
}


@pytest.mark.parametrize("family", sorted(BUILDERS))
def test_e9_netlist_structure_is_pinned(family):
    digests = [netlist_digest(BUILDERS[family](n).netlist) for n in (4, 8, 16, 32)]
    assert digests == DIGESTS[family]
