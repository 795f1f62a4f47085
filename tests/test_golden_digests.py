"""Golden report digests: reports stay byte-identical across engine changes.

Each digest is the SHA-256 of `to_json(include_wall_time=False)`, recorded
before the elimination core was rewritten over sparse integer rows.  A
changed digest means a report's content changed; update an entry only when
that change is intended.  The (3,3,6) entries, 7-variable frames of up to
924 columns, were recorded before `Echelon` indexed its rows by column, and
the (3,3,7) entries, frames of up to 1716 columns, before span rows were
keyed by exponent tuple.
"""

import hashlib

import pytest

from ikernel.harness import ScenarioConfig, run_scenario

GOLDEN = {
    ("lemma-infini", (1, 1, 4)): "1fddfc1269c617057b30403e9e7e16e02f22305551b094393ea2ca0c3da84eb5",
    ("lemma-infini2", (1, 1, 4)): "4bc3e5fa1c1a7d527392594f368a011c806457d13d70bba49c39eebbd5ab2635",
    ("g1-invariants", (1, 1, 4)): "806fb69a950c4258e9ac7fb83ca1d0d0ae6a183cd4b855c1c0f72925afafa807",
    ("g1-integrality-dichotomy", (1, 1, 4)): "9c547b5f8ae0f25d894cfb755c4eda86672ac90123295ab786734aad5f6a216c",
    ("g2-invariants-A", (1, 1, 4)): "338d6e388bb898409a6a1b1b189b8509a0b6eab1c9e130bf7e783136f30daa43",
    ("g2-invariants-B", (1, 1, 4)): "16a878ec0d52b0cd5118905b602af1cd7168eb76d06feae6ce0cdb58e00d72a6",
    ("theorem1-cusp", (1, 1, 4)): "b2b1fa08a6d11035db9f8f6bc226cf2cbe1d792a9a134ccadd73f3308b7d0825",
    ("action-stability", (1, 1, 4)): "c73f08fe6038e3a1122bcbcd8f2e491e2f44b2e8d6bf4b46b15ef5a32d575a80",
    ("localization-smoothness", (1, 1, 4)): "8f9a6016e650d1e9237a3d63482a87168d40664c96ddd5cf876fec031d4e9bb3",
    ("lemma-infini", (2, 1, 3)): "384a2a2da62c03c386be6e984865a05e3e0a2a04a5638e30f9d2056fb93bd4d8",
    ("lemma-infini2", (2, 1, 3)): "b7de57aaa0284374eb29739cf3f45ce9b7de31957f7c5b88ceada44b2561864a",
    ("g1-invariants", (2, 1, 3)): "a3267a4819578ee3ccb7e6052a1eeabcdac90f879cb3d5eb89504fde9d2ba94a",
    ("g1-integrality-dichotomy", (2, 1, 3)): "c4f3bdd4890b6d034ed0fe67449c6806ef6aafe4131a3ec8331f2018c8beb1b0",
    ("g2-invariants-A", (2, 1, 3)): "9d063c531a6ae86b1c34ff5b6530d0a9bb1b896f6de2318e70e17ad35a51a636",
    ("g2-invariants-B", (2, 1, 3)): "1300f62ed76e6b5cc193044ab3c9515eaf1b7c8b2c1269edc328c160c5d00581",
    ("theorem1-cusp", (2, 1, 3)): "50e0be3bab28d3a52e3cb1839307dd3be49c2bc743c00920f68d0d28db26a960",
    ("action-stability", (2, 1, 3)): "b053e55521cce630949937b1b806fe6c9f7d316ffe7987942704bdf8ac0039fc",
    ("localization-smoothness", (2, 1, 3)): "84f42dee51d09fc9d8cb5d998f379f1f6619fa164f17a784efca58bec68c7ed7",
    ("lemma-infini", (3, 3, 6)): "a12c86c82d80e2d5d89439184fe3e82b2c528f7c177beb0f481cd866f090a5b7",
    ("lemma-infini2", (3, 3, 6)): "cac14e50138517a12633aaa8e7b3214a6d8817cd5d37ef9ad5b52ff4a71b03c0",
    ("g1-invariants", (3, 3, 6)): "41285d94ffd267a4040eaf0be3bc5e35273b5e62d89323f2bfb835caac7cc53b",
    ("g1-integrality-dichotomy", (3, 3, 6)): "285102839a04bf19d419a160660e93d3a6189b98647735d84fcde299f21132ac",
    ("g2-invariants-A", (3, 3, 6)): "80161fe764e8cf9e8e4361d6275c323d39cae44484c9d5f44b387e23d2d27dc1",
    ("g2-invariants-B", (3, 3, 6)): "399085d5b8eb73e7ebd019164c2c80ab9b620c62f011d0f240371603a0b77f83",
    ("theorem1-cusp", (3, 3, 6)): "05a0027e468b928f3ca385220524fed1181bc7513b215cdf0ba63b7b38d3bd75",
    ("action-stability", (3, 3, 6)): "baf947438825121e493bb407b8909df71a30f79e7611c9e7435db5f272f7970b",
    ("localization-smoothness", (3, 3, 6)): "2a1273a27e6380a751406260804cbc2480114fb854a7e0d8162fdbdd66390b5e",
    ("lemma-infini", (3, 3, 7)): "204bf6484a324162f7d2a26e39153a507061829f590c2ca07cb29dc861de264c",
    ("lemma-infini2", (3, 3, 7)): "0ac2263b94e28176ab4989e1b7131fd7d1ccdfc834f6ad85fe89cbb9c3524274",
    ("g1-invariants", (3, 3, 7)): "96c3b6dff192d5cb8d7dca0402cab7c7517f92d4a90c8d41b4d180e1a4e0922a",
    ("g1-integrality-dichotomy", (3, 3, 7)): "92c0b826b63fc0fc5787da6769906662bec0789ef8baf2f14f86f605ed1d2f27",
    ("g2-invariants-A", (3, 3, 7)): "cfffb8fde765407727b63b75bc5e5d559373ac4783ef853df303f5594de273cf",
    ("g2-invariants-B", (3, 3, 7)): "6a6b8f0a22d5124dd9f6113f75a01335f5712f96bee53b09cadf0eed3f93476e",
    ("theorem1-cusp", (3, 3, 7)): "d8f9cd8c73a3939a909716f4bdb38a369d992f100da522fb963e68f0dc44ccf7",
    ("action-stability", (3, 3, 7)): "e321cf37815535ba659d1e19733229cc9e843e0e2f991e7445b1f3b09565e3f7",
    ("localization-smoothness", (3, 3, 7)): "287f539b0cac0b2ab35af58f5a434714bb88864ebc979c18afc9fdc48dd827c2",
}


@pytest.mark.parametrize(
    "name,size", sorted(GOLDEN), ids=[f"{name}-{n}-{m}-{d}" for name, (n, m, d) in sorted(GOLDEN)]
)
def test_report_digest_is_pinned(name, size):
    n, m, max_degree = size
    report = run_scenario(ScenarioConfig(scenario=name, n=n, m=m, max_degree=max_degree))
    text = report.to_json(include_wall_time=False)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[(name, size)]
