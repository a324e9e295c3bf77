"""Golden bytes: the SHA-256 of every artifact the CLI writes.

Runs ``modes``, ``table``, ``spectrum`` (``--window 2 --points 501
--jsi-slice``) and ``solve`` in both formats on the two shipped configs and
on a high-finesse copy with fidelity targets, and compares each file with
its pinned digest.  The shipped configs set no fidelity targets, so there
``solve`` must exit 2 and write nothing.  A digest that moves means the
artifact bytes moved; print the current digests with
``python tests/test_golden.py`` and pin them only with a stated reason.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from cspdclink.cli import EXIT_CONFIG_ERROR, EXIT_OK, main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

GOLDEN = {
    "highfinesse/modes.csv":
        "b744aad95d4dfb59107d4b4762977cfada10aab7fe4ff373c17bc59fe482cec7",
    "highfinesse/modes.json":
        "058e93b16292d7c310bec273110b841d172d56b4f773cd788680fe40c52f9eee",
    "highfinesse/spectrum.csv":
        "41e5c28990f76d94817589b210d425c9a64183712cbe1737735051a5f92e1dce",
    "highfinesse/spectrum.json":
        "060d58be2e7d31039c8c37fb45d31ada01f3c1b4a713c0f0f97d7f23bbd7a1ca",
    "highfinesse/table.csv":
        "e27bd73bf567d59dc96a57b14636f4e2277a2069925de000fb62d1fef6a29c65",
    "highfinesse/table.json":
        "c445d74b7271dbbef77eaa122f9e63ef5349c354c197668cee44f8f131800095",
    "highfinesse/table_full.csv":
        "59b07ddc544dab51ff9af0f23bfeae21c5345d601d932602ec0f76cabc90dd14",
    "lowfinesse/modes.csv":
        "c9c43b780d172045fd0546c8c3dca275e3abc58e35aeb489b2ebccbb9212fe65",
    "lowfinesse/modes.json":
        "478aad961d53e76f12d8f01bd08b967d835c2bc6caf51edc75e8f9dc8f6da39d",
    "lowfinesse/spectrum.csv":
        "077f01cc4161375dd2e07e92cdaa47fe583076c7d807601b7a8b66a784d2f0c9",
    "lowfinesse/spectrum.json":
        "b23dd05218ea3d45d10fa80319411932409fd7dc921c96f812ed63319bbec345",
    "lowfinesse/table.csv":
        "2a42478962b9edd753c9bd88b6710ff3769e097651ad9a3a4f09bd8a6b92c0c3",
    "lowfinesse/table.json":
        "a78e3c39d3cdc2772f25348ab1211fe6ea999a6cdd745abded646afe3688cf26",
    "lowfinesse/table_full.csv":
        "0f4c8a4603cabb855e4839e75bf8a684fab3768c6bfaeb19ca86223c44da0d1c",
    "targets/modes.csv":
        "2a779c8b12c0a346d16fb7fae5b3370ba0bd366510597d7b9f45a9785c7e3db9",
    "targets/modes.json":
        "26d2e92da3974a513223f6eac843ceda188e569a1ec5e4700cf0bb38658a2bb9",
    "targets/solve.csv":
        "2ae30c53d0957cb8d3a8df8791dccd095b0212f5a6ef5973a7be6233268b393b",
    "targets/solve.json":
        "a596e075e39d583d5beb88ec260c38df7a8a2a0e63461e793cb4980933db072f",
    "targets/spectrum.csv":
        "41420f9d321e6779624644a9576b5defaabb0cfa70b9bef98a8e24c7b78b8f5a",
    "targets/spectrum.json":
        "70b8e8e7cf46ec8241ad85fb173e86c7fee0a8fad795e69edc51be03d40a84f4",
    "targets/table.csv":
        "5c6978cc420898e5b79f9c929451af5dd6cb1d0fd9eb771489722e1282bedf5f",
    "targets/table.json":
        "070202db0526ceaead26e57c3cf5a0db0e79884423bcc22d0187b2a146de2bd3",
    "targets/table_full.csv":
        "cd2e395655397cfb49845a614dc3d03caa8c7ed5b7f3815704344e9cabee55f9",
}


def _config_texts():
    hf = (CONFIGS / "highfinesse.ini").read_text()
    return {
        "highfinesse": hf,
        "lowfinesse": (CONFIGS / "lowfinesse.ini").read_text(),
        "targets": hf.replace("[link]\n", "[link]\nfidelity_targets = 0.9 0.95\n", 1),
    }


def artifact_digests(work: Path) -> dict:
    """Run every artifact-writing command into ``work``; map
    ``config/file`` to the SHA-256 of each file written."""
    digests = {}
    for name, text in _config_texts().items():
        cfg = work / f"{name}.ini"
        cfg.write_text(text)
        out = work / name
        for fmt in ("csv", "json"):
            common = ["--config", str(cfg), "--out", str(out), "--format", fmt, "--quiet"]
            for argv in (["modes"], ["table"],
                         ["spectrum", "--window", "2", "--points", "501", "--jsi-slice"]):
                assert main(argv + common) == EXIT_OK, (name, argv, fmt)
            expected = EXIT_OK if name == "targets" else EXIT_CONFIG_ERROR
            assert main(["solve"] + common) == expected, (name, fmt)
        for path in sorted(out.iterdir()):
            digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return artifact_digests(tmp_path_factory.mktemp("golden"))


def test_golden_covers_every_artifact(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("artifact", sorted(GOLDEN))
def test_artifact_bytes_match_golden(digests, artifact):
    assert digests.get(artifact) == GOLDEN[artifact]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        json.dump(artifact_digests(Path(work)), sys.stdout, indent=4, sort_keys=True)
    print()
