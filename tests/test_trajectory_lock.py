"""Trajectory lock: chain states, phase labels and not-ideal estimates,
digested, must stay byte-for-byte what they were before the per-instance
structure record and the torus tables replaced the per-call rebuilds.

Each case runs `run_chain` for three seeds, classifies every state, and
runs `epsilon_estimate` on the same configuration. The digests below were
recorded from the sampler as it stood before that change. Pure starts
whose first maximal pair does not admit the pin are left out: those start
from an admitting pair now, on purpose.

The start lock digests, for three seeds, the first state of a one-step
chain with the start it reports and its greedy restarts: greedy and pure
starts on Z_4^2, the pure fallback on Z_8^3, and a pinned pure start whose
first maximal pair does not admit the pin. Its digests were recorded
before the pure start became one function.

The sample lock digests the `result` of two `sample` commands on Z_4^4
and Z_8^4, recorded before `sample` labelled its states in blocks.
"""

import hashlib
import json

import pytest

from torushom.cli import main
from torushom.constraint_graph import WeightSet, preset
from torushom.sampler import ChainConfig, ChainStats, epsilon_estimate, run_chain
from torushom.torus import TorusGraph
from references import classify

SEEDS = (0, 1, 2)
Q2 = TorusGraph(2, 2)
T42 = TorusGraph(4, 2)
Z83 = TorusGraph(8, 3)

# name -> (torus, preset, weights, initial, pin, steps, burn_in, thin)
CASES = {}
for _h, _wt, _explicit, _pin in (
    ("wr", "1,1,1", 1, (6, 0)),
    ("wr", "1,2,1", 1, (6, 0)),
    ("ind", "1,1", 1, (1, 0)),
    ("ind", "3/2,1", 1, (1, 0)),
):
    _tag = f"{_h}[{_wt}]"
    CASES[f"{_tag}-greedy"] = (T42, _h, _wt, "uniform-greedy", None, 3000, 500, 50)
    CASES[f"{_tag}-pure"] = (T42, _h, _wt, "pure", None, 3000, 500, 50)
    CASES[f"{_tag}-explicit"] = (T42, _h, _wt, (_explicit,) * T42.n, None, 3000, 500, 50)
    CASES[f"{_tag}-pinned"] = (T42, _h, _wt, "uniform-greedy", _pin, 3000, 500, 50)
    CASES[f"{_tag}-pure-pinned"] = (T42, _h, _wt, "pure", _pin, 3000, 500, 50)
for _wt in ("1,1,1", "2,1,1"):
    CASES[f"k3[{_wt}]-fallback"] = (Z83, "k3", _wt, "uniform-greedy", None, 1500, 500, 500)
CASES["k3[1,1,1]-fallback-pinned"] = (Z83, "k3", "1,1,1", "uniform-greedy", (1, 2), 1500, 500, 500)


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _label_record(label) -> list:
    return [
        label.kind,
        None if label.pair is None else [label.pair.a, label.pair.b],
        sorted(label.defect_e),
        sorted(label.defect_o),
        str(label.ideal_fraction),
        label.balanced,
        [[k, dev] for k, dev in label.deviations],
    ]


def case_digests(name: str) -> list[list[str]]:
    """[states, labels, estimate] digests for each seed of a case."""
    t, h, wt, initial, pin, steps, burn_in, thin = CASES[name]
    g, w = preset(h), WeightSet.parse(wt)
    out = []
    for seed in SEEDS:
        cfg = ChainConfig(steps=steps, burn_in=burn_in, seed=seed, pinned=pin, thin=thin)
        stats = ChainStats()
        states = [list(f) for f in run_chain(t, g, w, cfg, initial, stats=stats)]
        run = [states, stats.start, stats.forced_moves, stats.color_changes]
        labels = [_label_record(classify(t, g, w, f)) for f in states]
        # digested with the "mode" key the estimate carried when the locks
        # were recorded, when every case used the all-edges mode
        estimate = epsilon_estimate(t, g, w, cfg, initial=initial)
        estimate["mode"] = "all-edges"
        out.append([_digest(run), _digest(labels), _digest(estimate)])
    return out


LOCKED = {
    "ind[1,1]-explicit": [
        ["6b919ea48b0c733f", "03dda43b8d476eec", "4d8a22a8e4458328"],
        ["d5c478780881a45a", "24bee6be5989264c", "6ea087c03d8bae57"],
        ["4d721c036dcc073c", "fcac12849f98f969", "392595550174667c"],
    ],
    "ind[1,1]-greedy": [
        ["1138dd099c000731", "4f5c409eaf725c37", "7f92950c0833ff21"],
        ["5d015bfb6679a9d7", "0068922ebf48cdd6", "bc490a221985be91"],
        ["5c6b8240c5570e48", "65d9410ad9036b0a", "c6b409f9276be2d2"],
    ],
    "ind[1,1]-pinned": [
        ["a52ba8f65ec0c2ca", "4d1c41f28b6de691", "c889d4e5c6e95ffa"],
        ["903fa3a9681369ee", "96dd0fb636f9c48e", "41e45ee2bbed0c81"],
        ["db7bde3cfccf3bec", "a5cfcad82cb3ebda", "599922bdf57bbc31"],
    ],
    "ind[1,1]-pure": [
        ["2f90fa7e6ae1811f", "4bd6b03b2c8580c1", "1d9f76d7ac5de8f7"],
        ["9ac4ad2b9fbe3a0c", "6a551a053dbaf766", "eaddc841c4b84765"],
        ["4479f03e97e7ce6d", "847a5fd41b0bfa72", "9e37dc1f3f5eda0b"],
    ],
    "ind[1,1]-pure-pinned": [
        ["2e681e7ba519a4af", "4d1c41f28b6de691", "c889d4e5c6e95ffa"],
        ["04896d14d6a4526c", "35899fc1608c3fec", "52f884fbe315ba02"],
        ["dd2f14b696d4fcb1", "7b19ba5b8a815894", "f4eb57ab50110924"],
    ],
    "ind[3/2,1]-explicit": [
        ["d8775ee82ff85cff", "ea1a6f038010e248", "71b012315da98519"],
        ["eefdbdbbdf77670c", "e19c7bd0db92c334", "8a8e274e38efee2e"],
        ["26f3947c9e20e30c", "eb3c59af83198bc5", "17390282cfaa5f25"],
    ],
    "ind[3/2,1]-greedy": [
        ["14abfa4923a4be1d", "a306a228a5521c93", "4ae84f84addbd031"],
        ["1dfe3cd3f33a0123", "8304c8fbc6421015", "27eaf9cd16e2b57f"],
        ["e2d2404467fdb197", "90bebad2df6d2793", "d936b59b8dd459a7"],
    ],
    "ind[3/2,1]-pinned": [
        ["ba3bed0e09c178fd", "9e7099321159742b", "2d2c9c6dbe0db83b"],
        ["7161805aea13a8b3", "3df52cbd5c52b42d", "6df2542945084e25"],
        ["8dda226315d8b703", "ec47e752611aa627", "8f12bd5b53f3a660"],
    ],
    "ind[3/2,1]-pure": [
        ["342e4bbaa5ab4f45", "307817c44c29e8c3", "705716adb8c52d07"],
        ["3b385e41009fe7b4", "e3b1f046f56c8924", "6f4ac97ec6148ab2"],
        ["9897f77ec3bb6382", "0bbbffe992873c3d", "bce6c13fcf081f59"],
    ],
    "ind[3/2,1]-pure-pinned": [
        ["ea299d78ac973510", "9e7099321159742b", "2d2c9c6dbe0db83b"],
        ["f3319de18303303a", "3057a6bb8a66a853", "75cb54b33ac4ce67"],
        ["dd4f760cd559fc73", "96af9683c742b16b", "30e1ecacf7fd548d"],
    ],
    "k3[1,1,1]-fallback": [
        ["2b2de922db3482d6", "8dcdb54a55254e42", "3846358b4f0f532f"],
        ["04900d85b2fd0e84", "10cad904582afe25", "29e238f9f114dc7e"],
        ["37f8c043d575f442", "5cf562c6f187a297", "04b73c05d1c2e37d"],
    ],
    "k3[1,1,1]-fallback-pinned": [
        ["0e8251bdd2d23748", "573d3969d6bce1a2", "9baab37ffefc2029"],
        ["0cc37b4f992766dd", "9613724f18628529", "c9394b5932b9766e"],
        ["aa91202e5f23577d", "f5e80c314f74efc2", "4c4d71d4beef2c09"],
    ],
    "k3[2,1,1]-fallback": [
        ["921d20d1431b01cc", "b16d45366be383e3", "dc42866e20539642"],
        ["a911bd098db59673", "cdf56de96509897a", "f2c4f192c0396eee"],
        ["4bffb6c43cc64ad6", "b2ca5e82cac964b8", "49e0fbac56f24b94"],
    ],
    "wr[1,1,1]-explicit": [
        ["83b88bc013f782c7", "0134522794cafce7", "6f35adc27c116049"],
        ["83ddc4cd2109e22e", "68994b7c9f28bc82", "0ca6cfc2e2d45bce"],
        ["12ad49de895192bd", "c520706a57e59e33", "5286736c9a89b54f"],
    ],
    "wr[1,1,1]-greedy": [
        ["f22f7caeba796988", "564113ec89df3a2e", "cac152e86961fdff"],
        ["1ba05202546adadc", "353ed82b480e9f4e", "288c462dba16137f"],
        ["3b878b46920acc07", "c9c04eba0c55f9ac", "f7096186ef51da94"],
    ],
    "wr[1,1,1]-pinned": [
        ["cecbcee70b9f59e2", "93b8d3e9249e9fb0", "c86399f2b0fa583d"],
        ["357616ad75562050", "78943f35a2b68de7", "1eb291adba9eb3a5"],
        ["0eb9a29fcd759835", "2c3b5675d2f36e25", "f9b4dc32528ad3ea"],
    ],
    "wr[1,1,1]-pure": [
        ["92f68b3a02ff3f7c", "7465ef41cdebc2ab", "e23d58fe60102203"],
        ["12616b3843d7cb47", "c17d88aa35d2fe03", "8629acb93987fe15"],
        ["d74ba2386889c6fc", "1b8e6506841dfe87", "964cdc489c12ab7b"],
    ],
    "wr[1,1,1]-pure-pinned": [
        ["87a5045172415585", "b10fed63aede26b3", "1bd54fd4cd34eb54"],
        ["fcad74852ca939ae", "e75b702071dfa446", "0554875fa819843c"],
        ["7c34b8d7d7acc4db", "d815bb16cbd905fe", "1241dab986baf430"],
    ],
    "wr[1,2,1]-explicit": [
        ["629a82eae41c6e6a", "7472e6183b2ed662", "5e8050bf40b34466"],
        ["38ba228c23838385", "0d91ea807d2ce6a3", "41ddf19b965a3971"],
        ["3952e303c4aa957c", "7d2b54df5da20e1e", "ba9b8705ecaa2586"],
    ],
    "wr[1,2,1]-greedy": [
        ["0193a737c42529cd", "b038f3f05e085d51", "efbd566debfd831e"],
        ["e12605cbf44aa0d3", "2a457742fc2be9ee", "716510994fee2aee"],
        ["b2b7ebcdc02558db", "858d98bee83a8635", "4b6e6f8122e6bb2f"],
    ],
    "wr[1,2,1]-pinned": [
        ["9be8efa923c6aeb1", "7426119e2e5276a5", "2a4e739c37e6a39f"],
        ["10720630bd286781", "dd42f7c1f08033f7", "e4578a6eecdae5e3"],
        ["fff7a252cd12842e", "bcd526047990d3ee", "9b356b6f78a79b5c"],
    ],
    "wr[1,2,1]-pure": [
        ["1a163dc31f8733e3", "841b71554a35478b", "3c15447d14660a37"],
        ["a42749ec2d6bc913", "61d4c9af53cf7a3e", "c399c52b9d524a56"],
        ["8851a533bbeaf40d", "30e2ba0c1ecbe422", "00ede8d2caf9c06e"],
    ],
    "wr[1,2,1]-pure-pinned": [
        ["808debf163966dbd", "c0b4e8a9515c5c51", "4e53cbedaeba870e"],
        ["f5034c18cb8aeb14", "ad3432f0c74a3222", "c0f7103628712d92"],
        ["ee3c78daab323c72", "e70b487a5fcfefd2", "80bf29b5d4503bbf"],
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_trajectory_unchanged(name):
    assert case_digests(name) == LOCKED[name]


# name -> (torus, preset, weights, initial, pin)
START_CASES = {
    "k3[1,1,1]-greedy": (T42, "k3", "1,1,1", "uniform-greedy", None),
    "k3[1,1,1]-fallback": (Z83, "k3", "1,1,1", "uniform-greedy", None),
    "k3[1,1,1]-fallback-pinned": (Z83, "k3", "1,1,1", "uniform-greedy", (1, 2)),
    # ind+k3's first pair ({out}, {in, out}) cannot hold color 2 on the odd side
    "ind+k3-pure-later-pair": (Q2, "ind+k3", "1,1,1,1,1", "pure", (1, 2)),
}
for _h, _wt in (("wr", "1,2,1"), ("ind", "3/2,1")):
    START_CASES[f"{_h}[{_wt}]-greedy"] = (T42, _h, _wt, "uniform-greedy", None)
    START_CASES[f"{_h}[{_wt}]-pure"] = (T42, _h, _wt, "pure", None)


def start_digests(name: str) -> list[str]:
    """The digest of [first state, start, restarts] for each seed."""
    t, h, wt, initial, pin = START_CASES[name]
    g, w = preset(h), WeightSet.parse(wt)
    out = []
    for seed in SEEDS:
        stats = ChainStats()
        cfg = ChainConfig(steps=1, seed=seed, pinned=pin)
        (f,) = run_chain(t, g, w, cfg, initial, stats=stats)
        out.append(_digest([list(f), stats.start, stats.restarts]))
    return out


START_LOCKED = {
    "ind+k3-pure-later-pair": ["348b0dc2b494bc67", "348b0dc2b494bc67", "d7dbebf7faabaf56"],
    "ind[3/2,1]-greedy": ["c08bb33c37c485b2", "16371308b8ca414d", "3cb90f1263ea535c"],
    "ind[3/2,1]-pure": ["9f47059aa994971c", "22c8b1f0b1a2ea3e", "5efc9c91f7e16e6a"],
    "k3[1,1,1]-fallback": ["64258eb6b52dc298", "06fa338b0f7cd627", "c972d7efca06cf21"],
    "k3[1,1,1]-fallback-pinned": ["2b4d91dccc6b41d7", "24f1eab91b5c7936", "0ff479250a0f9b8e"],
    "k3[1,1,1]-greedy": ["712d89d5177a4102", "9db6829f0d68165b", "472509c2cbf151cf"],
    "wr[1,2,1]-greedy": ["b4057edfb7b39ee3", "ea906d60792bfeb0", "b18074ec735c865d"],
    "wr[1,2,1]-pure": ["bfad0d6d53bb8e21", "426062a277af3edd", "3218fec3fce80d5c"],
}


@pytest.mark.parametrize("name", sorted(START_CASES))
def test_start_unchanged(name):
    assert start_digests(name) == START_LOCKED[name]


# `sample` on tori past the Q_2 golden, wr from a pure start, 100,000 steps
# thinned to 200 states: Z_4^4 labels its states in blocks of 8, Z_8^4
# (n * degree = 32,768 palette entries, past the block cap) one at a time.
# (m, d) -> digest of the `result` section, recorded before the labeller
# worked on blocks.
SAMPLE_LOCKED = {
    (4, 4): "d8d0b22685a25ada",
    (8, 4): "25b8cd270d6eb758",
}


@pytest.mark.parametrize("m, d", sorted(SAMPLE_LOCKED))
def test_sample_unchanged(tmp_path, m, d):
    out = tmp_path / "sample.json"
    argv = ["sample", "--h", "wr", "--m", str(m), "--d", str(d), "--steps", "100000",
            "--initial", "pure", "--seed", "3", "--out", str(out)]
    assert main(argv) == 0
    result = json.loads(out.read_text())["result"]
    assert len(result["trace"]) == 200
    assert _digest(result) == SAMPLE_LOCKED[(m, d)]
