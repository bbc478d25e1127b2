"""Pins the exact programs ``random_ilp`` draws for the package's callers.

A SHA-256 digest per program covers each instruction's text in program
order, then the initial register file.  Any change to the random stream
behind ``random_ilp`` (the generator, its seeding, the bounded-integer
method or the order of draws) changes the digest, even where a report
that rounds IPC to two places would not show it.
"""

import hashlib

import pytest

from repro.workloads import random_ilp

#: SHA-256 per (count, density, seed) of random_ilp's program and registers
DIGESTS = {
    # E15 (ilp_limits): seed = int(1000 * density) + 7
    (4000, 0.2, 207): "5f7f4d3336b84b64bdce9b138ccffcfb274ded24cd692d5f07bc5e947317aebc",
    (4000, 0.5, 507): "bfe7731caacd6d55d2e8f039c7b7ae8914ad43f84184f661fa706282c9cb58eb",
    (4000, 0.8, 807): "2db9a1807ef5f401fdcc8ea8ffeb861a1b6f41426752ad3c6c2900a3e788b827",
    # E14 (perf), 1cm, window, and ipc's two random programs
    (3000, 0.35, 601): "625e037fc86956e016ada45945acdcf72382741266e58e6ece44dfd3bdbc0458",
    (600, 0.4, 701): "25b433ea39490b102f11de01a65354848df7e900c3c33cb3e9619ddf854e974b",
    (400, 0.55, 401): "480275bd10b03e417b647e7cc018f0becc2627c3a45785dfd426bf5349b65e54",
    (60, 0.2, 101): "10d5e6989f6b53fe6a98e75ba800db9ee09b9443ed2c9464465eadb62bf74ad1",
    (60, 0.8, 102): "5df54c211692f435a8a07eb9a06f36962cad1fcef85251c84f443de0120ebb78",
    # repro bench's engine/recurrence program and perfbench's simulate program
    (1024, 0.5, 1999): "2ff1ae5c67ae93463a500cc3b9149c399aa03ab2ec5df4d2ba6980d4eaa38722",
    (3000, 0.5, 7): "6e01f7ef382fdce9a90703726993306ad8d3e75b04f1ced37ab37014541f6ae9",
    # the project-wide default seed
    (20, 0.5, None): "f2b16285835d6a9fd785cd3cd2e85b22eca88eab227690277c14bb3f2c867793",
    # 63-bit seeds, as verify's corpus derives them: derive_seed(0 or 1, "ilp")
    (16, 0.75, 2136368533556335940): (
        "dbcef583d9f7ce553c46f39b1125474b12827a4f56cb856aadafb482218b0f30"
    ),
    (32, 0.25, 7636372062572502781): (
        "e63b73af7646bb170bbcaf8ea8e3b09af1ae6834d873366b94cb1648816e9eab"
    ),
}


def program_digest(count: int, density: float, seed: int | None) -> str:
    workload = random_ilp(count, density, seed=seed)
    h = hashlib.sha256()
    for inst in workload.program:
        h.update(f"{inst};".encode())
    h.update(f"registers={workload.initial_registers};".encode())
    return h.hexdigest()


@pytest.mark.parametrize("key", list(DIGESTS), ids=lambda key: "-".join(map(str, key)))
def test_random_ilp_stream_is_pinned(key):
    assert program_digest(*key) == DIGESTS[key]
