"""The golden table: the sha256 of every file the commands write at their
defaults.

Each row holds one digest: an experiment's ``report.json`` or
``levels.csv`` at seeds 0-2, keyed (command, seed, file), or export's CSV
in one model at seeds 0-2, keyed (command, seed, model).  An experiment's
row is checked against the runs at workers 1 and 2, since the worker count
never moves a byte.  Every file checked is its own test id, so a change
that moves one command's bytes fails that command's ids alone.  A change
that moves bytes on purpose updates this table in the same commit, and
``tools/byte_sweep.py`` shows which rows moved.
"""

import contextlib
import hashlib
import io

import pytest

from hyperlorentz.cli import main

GOLDEN = {
    ("free-path", 0, "report.json"): "9dbbd4847641cee4d7ea36e44b2eb1fb9ba3f96ba7e232943243f81fff831e2a",
    ("free-path", 0, "levels.csv"): "c62a40acd3a499be66686d545b0195563c39869d9fbbf8b0e9d67285587e2d99",
    ("free-path", 1, "report.json"): "0eaed265512d7e941af55bafa44d4fdfd81dcc79125dadba42fa033f634dcc57",
    ("free-path", 1, "levels.csv"): "bbd594df60a84e5e4a82519ab44fa4da7c001ff551e49e152506e28246c2f666",
    ("free-path", 2, "report.json"): "ec0501c0d19753c740ea6470f99fd52295a20dcb6c572032346023d0b5cee464",
    ("free-path", 2, "levels.csv"): "bb51ddc680ef17d967bc0560cc45a3f993bbeefa924a13bda84ea451bd397bbe",
    ("nearest-neighbor", 0, "report.json"): "f006b66954844d2ee2db8e7e13fb746028aa155a2dcd2771cd55f439c6fb98f3",
    ("nearest-neighbor", 0, "levels.csv"): "62b2cdd5991bad9e4a25b87cc69a927b6b1a7dd277c22c36e92deb82a28dc6ea",
    ("nearest-neighbor", 1, "report.json"): "64a01cb2ecf5771f9605466140996def4247812b4b7332c2cf50641fc59ed368",
    ("nearest-neighbor", 1, "levels.csv"): "e1685a6017c773c661c4a92c236f79a7307165e61df7037e5584fd8c3a9a6848",
    ("nearest-neighbor", 2, "report.json"): "ee85db2b3fb98381b608f3b59f3f22baaaedb605402ed4252df89c39044c4c3c",
    ("nearest-neighbor", 2, "levels.csv"): "35390bdadf7e26be98563cc1459a5742c8fa2a3d651283d59515e22e13bc3692",
    ("deflection", 0, "report.json"): "e3c8b8de3da9915cf500d94b530d75d30273fb098f1cf28fab388d5cc5d85551",
    ("deflection", 0, "levels.csv"): "c03e978fc8c28779d6ec0e06f6f9a062776a1dfba8b9d40e7a475e7667529102",
    ("deflection", 1, "report.json"): "f1a0ceb1872b35f8f7df1d2bb8f6424cf3b0f5eb8e35cbe269d0ead69f59adbf",
    ("deflection", 1, "levels.csv"): "2157984f64f27a5a32ef634b92c893d321205094c0ba052699b71f2073b8c203",
    ("deflection", 2, "report.json"): "4ea72a2112c0c56e6114169db3a84a486daa364f02b59fe09683c064c7132e8c",
    ("deflection", 2, "levels.csv"): "d994406490b5b139709826e0a275dc9f8da44d8740c29de584108746e9101298",
    ("tube-mc", 0, "report.json"): "851dac4510868ea141348cf610dab5a85bee6c65dac17ce42ea7f20ddee33882",
    ("tube-mc", 0, "levels.csv"): "d3325246b4d094d3dd4950cf9f15ab7e7c9e15fc65fe679ca791422d7d04849c",
    ("tube-mc", 1, "report.json"): "216f0f3521c69aa9d11dac514430dfe59e572f83c1f1ba07ecdaf8c9c966bf39",
    ("tube-mc", 1, "levels.csv"): "ec6f04e6e5594e6a612dbaf5b3a7a058691db469ec3eb288c1268c563da4046a",
    ("tube-mc", 2, "report.json"): "26550b35085f49d6279fd44808767e83de8f7a4c9a1cc7d56da1c478302e6a1f",
    ("tube-mc", 2, "levels.csv"): "e44e4a38f186c012424ae9e9a168714f13ecec43014cd73ea782cdc32aaed8b4",
    ("bg-convergence", 0, "report.json"): "37e0a77769bab5eb02636f634608d5753fe5ee5f9957ebcfb1cb41dba66ff128",
    ("bg-convergence", 0, "levels.csv"): "5a80d4ff676e52e4a2e333c9281976ab820c2a46f8b7d7d17e37250ffd3eb39a",
    ("bg-convergence", 1, "report.json"): "08dbc564fcc689f1f7a2495242be2ec4eca54e92cee53804aa0c3b88d0a55bf3",
    ("bg-convergence", 1, "levels.csv"): "026ab1ac0ed6c8e0b2badf9d26551a4c0bd9446bcc695a381e5f5db61ac9c76f",
    ("bg-convergence", 2, "report.json"): "9e1ef1ce0a9bd79a9ab610e2713f6fc5b7c0c91ca4b8d2cb42cc7c1b8df85ce9",
    ("bg-convergence", 2, "levels.csv"): "db2cfe4eb482de2f7f5b318e4abab6f282960bf51ba3ff1c97d466b94a3079e5",
    ("flight-baseline", 0, "report.json"): "1ee99e6f4f57978e3c924b945e5ef90e01c9a426a4d421d816ddec1bc72c19bb",
    ("flight-baseline", 0, "levels.csv"): "87bd06677d4e19a95026c4e6859b237245bf7eb692b6f0948339e9266b1e71c0",
    ("flight-baseline", 1, "report.json"): "e7a13cd4ca5cfea998dd6433e2cb9596eea6398e80917ed6d9879d1f07b6a2d1",
    ("flight-baseline", 1, "levels.csv"): "2950407ce8a11f887aef3c22d2d28b62764602b1ac11321923e3d11821648f55",
    ("flight-baseline", 2, "report.json"): "6eca8e3e6bee547e5d3d0a6f7f99bb82ac932a84cbb3c209b792abe26da3a281",
    ("flight-baseline", 2, "levels.csv"): "637de51c19c7080ca7cd5c7d215833d0d89a8273d0892e219e41c82cfb83449a",
    ("export", 0, "model=halfplane"): "bbc579ef1574844d14952c85e600b87cf3119bfa4374db4afd8fa0c873df6f35",
    ("export", 1, "model=halfplane"): "349e4ae600e8ed8904d8c278dc4f6f045062d3960ac0342bb91b7229f706e05d",
    ("export", 2, "model=halfplane"): "007059c9ab8bdd33b370bd0a80e3e2f70c1d125d6b4ea0b84780c94483df7b88",
    ("export", 0, "model=disk"): "63a4756f6ee5c683aa9ab5272c29e60cc66b4167c86e4f660184092534479a2c",
    ("export", 1, "model=disk"): "cafbe769ec24d30427291bac43c882fad04691283f5c3524e55856248ad084eb",
    ("export", 2, "model=disk"): "e9212c22f2563663f772ab4ddb0dca08916f5a02a458041f4f6cecadcce90956",
}


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """The path of a file that one CLI run writes; each run is made once."""
    root = tmp_path_factory.mktemp("golden")

    def path(command, seed, variant, name):
        out = root / f"{command}-{seed}-{variant}"
        if not out.exists():
            option, value = variant.split("=")
            dest = out / name if command == "export" else out
            argv = [command, "--seed", str(seed), f"--{option}", value, "--out", str(dest)]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
        return out / name

    return path


def _cases():
    """((command, seed, variant, file), digest) of every file checked."""
    for (command, seed, key), digest in GOLDEN.items():
        if command == "export":
            yield (command, seed, key, "traj.csv"), digest
        else:
            for workers in (1, 2):
                yield (command, seed, f"workers={workers}", key), digest


CASES = list(_cases())


@pytest.mark.parametrize("case, digest", CASES, ids=["-".join(map(str, case)) for case, _ in CASES])
def test_golden_digest(written, case, digest):
    assert hashlib.sha256(written(*case).read_bytes()).hexdigest() == digest
