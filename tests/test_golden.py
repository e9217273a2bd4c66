"""Golden outputs: fixed seeded runs must reproduce their pinned digests.

Each run's orderings, ``repr``'d objective trace, nDCG and saved run file
are hashed with sha256, and so is the ``repr`` of the report of some runs
evaluated against their pass-through baseline. A change that claims to
leave the engines' or the metrics' output alone (a refactor, a faster
kernel) must keep every digest; one that means to change an output updates
the digest it moves and says why.
"""

import hashlib
import json
from dataclasses import replace

import pytest

import fairrank.assign as assign_mod
from fairrank.io import save_run
from fairrank.rerank import RerankConfig, evaluate_run, rerank_offline, rerank_online
from fairrank.synth import SynthSpec, gen_random_instance, gen_synth


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _continuous():
    return gen_synth(SynthSpec(n=60, T=12, seed=5, variant="continuous"))


def _binary():
    # two relevance levels: ties broken by ascending id throughout
    return gen_synth(SynthSpec(n=40, T=8, seed=0, variant="binary"))


def _continuous_600():
    # tie-free rows: the ideal order comes from one unstable argsort
    return gen_synth(SynthSpec(n=600, T=16, seed=3, variant="continuous"))


def _binary_600():
    # every row ties: the ideal order comes from the stable argsort
    return gen_synth(SynthSpec(n=600, T=16, seed=3, variant="binary"))


def _three_components():
    return gen_random_instance(30, 3, 10, "continuous", seed=11, components=3)


def _config(kind, objective, mode, k_re=20, theta=0.8):
    return RerankConfig(
        kind=kind, objective=objective, theta=theta, k_re=k_re, k_att=5, k_eval=6,
        polarity_mode=mode,
    )


RUNS = {
    **{
        f"online-minmax-{kind}-{mode}": (
            rerank_online, _continuous, _config(kind, "minmax", mode)
        )
        for kind in ("L1", "L2var", "W1")
        for mode in ("aware", "agnostic")
    },
    "online-minmax-L2var-aware-continuous-600": (
        rerank_online, _continuous_600, _config("L2var", "minmax", "aware")
    ),
    "online-minmax-L2var-aware-binary-600": (
        rerank_online, _binary_600, _config("L2var", "minmax", "aware")
    ),
    "online-minmax-lex-binary-aware": (
        rerank_online, _binary, _config("L1", "minmax-lex", "aware")
    ),
    "online-minmax-lex-P3-aware": (
        rerank_online, _three_components, _config("L2var", "minmax-lex", "aware", 12)
    ),
    "offline-minmax-lex-L1-aware": (
        rerank_offline, _continuous, _config("L1", "minmax-lex", "aware", 12)
    ),
    # offline minmax descent proposes lex-refined steps whatever the kind
    **{
        f"offline-minmax-{kind}-aware": (
            rerank_offline, _continuous, _config(kind, "minmax", "aware", 12)
        )
        for kind in ("L2var", "W1")
    },
    # every step's cost-optimal matching meets the quality floor
    "online-minsum-L1-aware": (rerank_online, _continuous, _config("L1", "minsum", "aware")),
    # three of the twelve steps are settled by the min-sum MILP; its digests
    # move whenever the MILP breaks a tie between optima otherwise
    "online-minsum-L1-agnostic-theta0.9": (
        rerank_online, _continuous, _config("L1", "minsum", "agnostic", theta=0.9)
    ),
}

GOLDEN = {
    "offline-minmax-L2var-aware": {
        "orderings": "4f17c880ca3f2405645e20951b2461e19c3b07b9777c97692068a030da0e478e",
        "objective_trace": "38599ff0cf1b0a61bef8ce8e71b93397f71f6a7fdc176c8c5c44a292a400b241",
        "ndcg": "c534ee5ad1453657d7166b2e0223fcf52d713d4939de694cb3948d46716a1107",
        "run_file": "822cc5355d887e59bcaac853edff81ca3f8051f1727a02047ed169b6dccc1c07",
    },
    "offline-minmax-W1-aware": {
        "orderings": "1069e4465dc6dcac187125aee2895e484e5b732c9dfde629233aae1bd824dc8d",
        "objective_trace": "65c00a237122512eb7f5bb6b31040245da028b0e56aa3822eac9db8c565a63a8",
        "ndcg": "f513e13a2688a63ce85654a15c2b228e3d568f7c9d90fa7bb92a9f67c912880e",
        "run_file": "286739ab5a06c70ffcc96b9b48ed852f81fa143a2af062d46be19453689b455b",
    },
    "offline-minmax-lex-L1-aware": {
        "orderings": "9a72a325398a1d61473f2df81acd1e12fb5323396443340b68f372e0ee28fa1d",
        "objective_trace": "a9e10ee8bac1f4134bb5e056a035b92408662947bff8ea44db2866a0f197a9e4",
        "ndcg": "d49cdc1a4c3215efe12370f097fc731f4fbf59c0040e6ef2a8d2b716eafa7510",
        "run_file": "d5d5c6475c9ab7d106c6226d6eda99323cfaa7b5621c52756404915c05eed6c6",
    },
    "online-minmax-L1-agnostic": {
        "orderings": "6a1c1d47f4d006a595e423a650e912ca5d9fb21a3bcec8613b81f39dc5782796",
        "objective_trace": "ed1fe3ea780902bfbe08d70f9236405ce1f4f97277543e00eb016cc263b3dba5",
        "ndcg": "81a34d7cff9c8d2c1fa5d006d1b2e3029a04ae07bea4efc2ca7d139403e62bf2",
        "run_file": "d842fbe4f5b59f61a260ec31c0c8f6b858ebf4eb9bec8a429287f5f0943f30ba",
    },
    "online-minmax-L1-aware": {
        "orderings": "6c4f1abf5d146b2b9b233a4a6f6bfb7d583d0cb6b6ef8c0aedf02b5a3344d4e6",
        "objective_trace": "bb130bb895edc5a216a69226a818077fd543b7f94039d33e6a590aba76c391c5",
        "ndcg": "06cd2ad6f23b160db69c2d0f88a034534482ed32550c0ee139646f2ad56a475b",
        "run_file": "c04daa911215df90ab3973430018943b006e3d436cdcaaf071b8d79094a49b0b",
    },
    "online-minmax-L2var-aware-binary-600": {
        "orderings": "c20a1481ca3ab56f68c17142309e3385314383fcb5b28dfe28425bf2be0027dd",
        "objective_trace": "929ca6315845c963c18b6036cefd245af1cb233ed3d6a285f0d1a5e480a33eb8",
        "ndcg": "b977b658cdfd1a699ee4499510a48c1bb7e8a2b93cffed5172ef5ce597c2bcae",
        "run_file": "fd465ad244960fe21e7b1f2acfc28a6be8548767d06316dea7e8df72dc4f6ded",
    },
    "online-minmax-L2var-aware-continuous-600": {
        "orderings": "758ba3e8b3402430dd2303b524decd664c94cbb320ddc528c5e4042ee6a32651",
        "objective_trace": "d12632c26802df98cf264ce7722efa0ac0e08201105e6bd5a428fd404e907e82",
        "ndcg": "18e9dd7f9cb7e7847584c80e7a8305ec2169a20307856c2c91efc6f0f9035b54",
        "run_file": "50495d3cb41bc18a380278ae7b84027db4143dacb59f77f00c72e20cd2251cb3",
    },
    "online-minmax-L2var-agnostic": {
        "orderings": "3908c9cdde68e4253bb873315ae300bc4b079537936bd140790720b25e0fbcfa",
        "objective_trace": "cbdc36ee64835fdb04fe7b03118e7a1a7459e2e1213c5687922dfaf8ddf0578d",
        "ndcg": "8dcb18bf75fc34f94516001569f9bbbe7e76afefe070e5f0bed8638ef06e97d2",
        "run_file": "d130a804ba743a79eeece87f8f93fdbdd4ca3d71c1135a7b2e7bafe65ec812e0",
    },
    "online-minmax-L2var-aware": {
        "orderings": "f1c3b101e37721bb8ed347762547815e290e0e92f36fc1367d462362bd13a297",
        "objective_trace": "db8f2bbb577586bd0295c317b016f564ab34a74b0dda869ab2b3c157aee3f48b",
        "ndcg": "28c28ff412d8930b80ca2707af3714e515c61be2fd34d06edc830dd8e36b8878",
        "run_file": "f23b518b68fe5a9ba6fa1bbb064234798e688643a795d313edb4c42833621d85",
    },
    "online-minmax-W1-agnostic": {
        "orderings": "a8a876cfb1efd710feade93cc394928020fecdaa1aca0823297eb4bb134ad71a",
        "objective_trace": "23adebaba60c97a7affff0a1a082d22eaeff967f6901cb8bbcae9126bf5264a8",
        "ndcg": "68c463e5a2210402bcd07d936e057e5d6ec01fa2b12a6f6b2d05e71d2b6d2890",
        "run_file": "4ba8e6b25a919b16fdf0b4a6c5d77ec43bcee12676dd9d688fababe04669bfb1",
    },
    "online-minmax-W1-aware": {
        "orderings": "a8a876cfb1efd710feade93cc394928020fecdaa1aca0823297eb4bb134ad71a",
        "objective_trace": "f545872c870836da7079cad648d453e70841644545257c0a2664456cca439739",
        "ndcg": "68c463e5a2210402bcd07d936e057e5d6ec01fa2b12a6f6b2d05e71d2b6d2890",
        "run_file": "7e97f6100c12ce212670a7b05cdfbfad28d15284b3c597a8854727e639004f92",
    },
    "online-minmax-lex-P3-aware": {
        "orderings": "cd2948a11369b97631b3f34a5a10e82013491dbd834e41bf2019e0a2c810fa64",
        "objective_trace": "af31d4b7d89c82444e159b2726f432e6751da51b7f19556fb729705b56219a8c",
        "ndcg": "394ed0d728b83086dbe1a3a56ebed53ab4a8f42f8baa684ba0e3533ceacd36b7",
        "run_file": "0bb3075d004e66d0a1c8c42dec9218d9d6c9f7da6020e63a658615b10dbeafb5",
    },
    "online-minmax-lex-binary-aware": {
        "orderings": "d835570f0aece1ecb3212e98033b8ca5dc29c01198f8c38a768107f1cf789e03",
        "objective_trace": "81f3b8084247031a481be6dd7f13208e96655b6e66d75e9bf4e9d7e836f64fdc",
        "ndcg": "e76b4b3fe81c596b8e58f41307abab6fb8c82203401a63b45917ba892036f49a",
        "run_file": "34f65bfd3d0c99b61710055410b1b9c35d726d0685e7de13a958c26d41d931a6",
    },
    "online-minsum-L1-agnostic-theta0.9": {
        "orderings": "f6117cabfc01e6c5e9ae307f1c3176c0b2c4bf99a81ad8980a71b1c5db202950",
        "objective_trace": "b579929e3e75e7f96d741ba783afbbfda9fc0ef265a8bd3851a1f11fab076f37",
        "ndcg": "77605b1ed9abe28fbfe7c092f40e4d08aab989345dcdec6957349aee5d3863b9",
        "run_file": "292e4e1757e73e40d6838fd59a24fc8b1f5bdf9338205718ef60d58fa733a3ab",
    },
    "online-minsum-L1-aware": {
        "orderings": "65ea75a1762c23bc2e6bad744546eaa5f8bc7572febf2d54f22602b469ffe129",
        "objective_trace": "a225e66a551a4b70ba6fbb1b9a022c64fe90eb4fcb4db645d5a82c70ee62412e",
        "ndcg": "151c7be804c6e7195e63e8314b8853543c56749a48687317ca9bde31f87d06c4",
        "run_file": "32d5915370087dc96a039c176154434530293f8ddf0a162b1e2f26c4cd347bd9",
    },
}


def _digests(engine, make, config, tmp_path) -> dict:
    dataset, stream = make()
    result = engine(dataset, stream, config)
    path = tmp_path / "run.json"
    save_run(path, result, stream)
    return {
        "orderings": _sha("\n".join(" ".join(a.ordering) for a in result.assignments)),
        "objective_trace": _sha(repr(result.objective_trace)),
        "ndcg": _sha(repr(result.ndcg)),
        "run_file": hashlib.sha256(path.read_bytes()).hexdigest(),
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_golden_digests(name, tmp_path):
    assert _digests(*RUNS[name], tmp_path) == GOLDEN[name]


def test_tight_minsum_run_reaches_the_milp(monkeypatch):
    """The theta = 0.9 min-sum pin covers the MILP finish, not only the
    quick exits."""
    calls = 0
    finish = assign_mod._min_sum_milp

    def counted(*args):
        nonlocal calls
        calls += 1
        return finish(*args)

    monkeypatch.setattr(assign_mod, "_min_sum_milp", counted)
    engine, make, config = RUNS["online-minsum-L1-agnostic-theta0.9"]
    engine(*make(), config)
    assert calls > 0


# runs whose report against the pass-through baseline is pinned: the online
# L2var and W1 runs in both modes, an offline run, P = 3 and tied relevance
REPORT_RUNS = (
    "online-minmax-L2var-aware",
    "online-minmax-L2var-agnostic",
    "online-minmax-W1-aware",
    "online-minmax-W1-agnostic",
    "offline-minmax-lex-L1-aware",
    "online-minmax-lex-P3-aware",
    "online-minmax-lex-binary-aware",
)

GOLDEN_REPORTS = {
    "online-minmax-L2var-aware": "84612f4755d1e8fd2439207ef071f69cd879c6e60d362a8a79145f6a83cd9ad3",
    "online-minmax-L2var-agnostic": "ab57188baee92973326e5bd7e673610c6b17b5bb9c78b1b237abd2e10b200c4b",
    "online-minmax-W1-aware": "9132f5d756ae716e60e3483978d6c4958574a6cc0568b993f649bf97945ad4d3",
    "online-minmax-W1-agnostic": "b866d4cced35d6dfce166a971f46ab917bf29af42d15b087dd795d1982bdf63d",
    "offline-minmax-lex-L1-aware": "cecb7b91db00ddb5765644e87540eda4186be6649f8b363320ecafb286ae3ea8",
    "online-minmax-lex-P3-aware": "99b23c1c30357a41503b9725b24240df38b225a0f6307803f117bba1ae6f2235",
    "online-minmax-lex-binary-aware": "205f2d4b72ca300d08c4e38d3cc609117c178c4560618ffccdd61d13273d426a",
}


def _report_digest(engine, make, config) -> str:
    dataset, stream = make()
    result = engine(dataset, stream, config)
    baseline = rerank_online(dataset, stream, replace(config, objective="none"))
    return _sha(repr(evaluate_run(result, baseline=baseline).to_dict()))


@pytest.mark.parametrize("name", REPORT_RUNS)
def test_report_matches_golden_digest(name):
    assert _report_digest(*RUNS[name]) == GOLDEN_REPORTS[name]


if __name__ == "__main__":
    # prints the GOLDEN table for the current code; paste it above only when
    # an output is meant to change
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        table = {name: _digests(*RUNS[name], Path(tmp)) for name in sorted(RUNS)}
    print(json.dumps(table, indent=4))
    print(json.dumps({name: _report_digest(*RUNS[name]) for name in REPORT_RUNS}, indent=4))
