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
    ("bg-convergence", 0, "report.json"): "91aefdbe925cbe82c203341fa64568f5217cbc0cc70767afc7262049a65a3937",
    ("bg-convergence", 0, "levels.csv"): "fc3500cf2721f8c968f036448746a5ece663d313dc1a797a803953b607bedc9a",
    ("bg-convergence", 1, "report.json"): "3f216f2be6bd777892d1371f5b5d4db6e6aa57c6a8437a74b846f745d6a4f6a0",
    ("bg-convergence", 1, "levels.csv"): "5dd14e4d352e24bd038c00d10fe81ab24317e3b24d660465d40b33a0de5beebc",
    ("bg-convergence", 2, "report.json"): "899022f0e63927c6f33a8f90830a7fb5f531bc6edb160dd2df89bb7df03d7555",
    ("bg-convergence", 2, "levels.csv"): "5037a1e738ca8d7dc88ffa9b7ea4e9bdaa3249ada15a58bf9a3b26249639ab5f",
    ("flight-baseline", 0, "report.json"): "1ee99e6f4f57978e3c924b945e5ef90e01c9a426a4d421d816ddec1bc72c19bb",
    ("flight-baseline", 0, "levels.csv"): "87bd06677d4e19a95026c4e6859b237245bf7eb692b6f0948339e9266b1e71c0",
    ("flight-baseline", 1, "report.json"): "e7a13cd4ca5cfea998dd6433e2cb9596eea6398e80917ed6d9879d1f07b6a2d1",
    ("flight-baseline", 1, "levels.csv"): "2950407ce8a11f887aef3c22d2d28b62764602b1ac11321923e3d11821648f55",
    ("flight-baseline", 2, "report.json"): "6eca8e3e6bee547e5d3d0a6f7f99bb82ac932a84cbb3c209b792abe26da3a281",
    ("flight-baseline", 2, "levels.csv"): "637de51c19c7080ca7cd5c7d215833d0d89a8273d0892e219e41c82cfb83449a",
    ("export", 0, "model=halfplane"): "90f1fec268b5f2b6ea0c850f87473468ad4af7b5158c69feb57a1e6a4cf8c1a8",
    ("export", 1, "model=halfplane"): "1fa779e8f5ff7b142576b2ec05455eaa7f5921aa02dde412c8c38d19567715d9",
    ("export", 2, "model=halfplane"): "ef1554860e283176abcaf6e5d8fd838f3d7cb9519a26153472336df0a989059e",
    ("export", 0, "model=disk"): "3422ae19047b084c419f64224cd98723f5b3219d07fdf7123eaf8a6635c75cae",
    ("export", 1, "model=disk"): "012656904d4dc677213880bae8a459e612b12252800b12637dd085e19909862d",
    ("export", 2, "model=disk"): "286f7d570a190b94c402d1e05bff14f3270638f0d91c4f748d822ffc94f105e2",
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
