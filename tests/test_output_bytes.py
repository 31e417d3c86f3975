"""Byte pins for every table the CLI writes on the demo: the SHA-256 of
each file, recorded before the CSV writers were folded into one. A
change to a writer's quoting, line ends or number format moves them,
where a round trip of the values would not notice."""

import hashlib
from pathlib import Path

from demrecon import (beta_from_elicitation, load_elicitation, load_grid, load_theta,
                      make_manifest, prior_sample, write_samples)
from demrecon.cli import main

DEMO = Path(__file__).resolve().parent.parent / "data" / "demo"

PINS = {
    "proj/projection.csv": "7908a2538b119e197918f52fafacb072599edfe042129efe82c4293107d6c7cd",
    "sim/census/census_female.csv": "169ad5e4c1b94414e356eaaf18a6fdcc00d9a7c0acbb9426a88b03c14c49aa58",
    "sim/census/census_male.csv": "42ff9f985af56b684cf262241a4ffd6a7e21976082e2c748b0e2fb5f4f8c9a10",
    "sim/initial/baseline_female.csv": "084c087c6852982acb9b4be20e0aba57bfdc784513549b5bd312203e26533940",
    "sim/initial/baseline_male.csv": "b55c46db2c78e7b4bc926d75cdb102f97f0f008ea2c68ada2aba38575c0e9ed1",
    "sim/initial/fertility.csv": "08795326ae679569342cd6d1040452233228ba8ac925ae7e8f9108286524f18f",
    "sim/initial/migration_female.csv": "6ecfa7802a946926252cd2933386be9fd9338431ce2aa77b5129da69ec1dcdd1",
    "sim/initial/migration_male.csv": "6ecfa7802a946926252cd2933386be9fd9338431ce2aa77b5129da69ec1dcdd1",
    "sim/initial/srb.csv": "0db09d49c60c937f6637e38ed58a3507c7d97ff22236d112497eb916b8b20f21",
    "sim/initial/survival_female.csv": "47eb44b4df48c1c9426230d15dc920b1c717afec218e828623850e5047ab60b9",
    "sim/initial/survival_male.csv": "451f019a46af8787872f6179b37c1fcb632a8e35a05da20bf7e1152986684151",
    "sim/truth/theta/baseline_female.csv": "c43cb5972af70526174d48a947f445f952e5b29758d77c1eba72ec792c8589ce",
    "sim/truth/theta/baseline_male.csv": "6637dbcc5d9d815ab444adab5bfa94e266ae4e0d729e88965088aa8d9d3fd095",
    "sim/truth/theta/fertility.csv": "94e2fde59d37a842fbbea1e7064c0bf991bef9e2fa2265aae777d2cba70246e9",
    "sim/truth/theta/migration_female.csv": "f93e316e9bd88f0fddefebee4ecd8e0b1446db2e0dc6dc42027a5ff81a8f50ba",
    "sim/truth/theta/migration_male.csv": "c62ab440f70423f4b815362869fb0d0b39305faa0ad3a2708f98c19ae1151401",
    "sim/truth/theta/srb.csv": "cff6083a412cb31e074e7438a4a9796c0430c20ec4d243262c20eb35fdb88454",
    "sim/truth/theta/survival_female.csv": "3c3c6570fd30ae17956463d5d0748a7ed07fc40a3379d865f8d66561da507135",
    "sim/truth/theta/survival_male.csv": "4fafb1e719ef42b3c336fbbac14c360dada6abc7099007df0db529428741c0be",
    "sim/truth/variances.csv": "46090b739599d66457d1085a8d83e9632c35d755b0a416f02cce161cf7dee90d",
    "prior/samples.csv": "5dc96b242859a9b86d4df782e5862365d043c5e48bf94aca63e5b96d948a9185",
    "prior/summary.csv": "dcf0e9da7d4a4f34d1eaa1215dc5868945ff9da7f2aaaec0b2edb89792b6cb9a",
    "prior/diagnostics.csv": "26e35d320305d98bf0a9649f49390d0cfb2dd4ff7e8d52092a401ecd6cee345d",
    "flags/summary.csv": "c05abe7186b0de5c316df3b54a246558ac8fcaff896a68a799304cbea718ca81",
}

# a second summarize of the same sample, writing threshold (one per
# operator), trend (on a rate and a stock) and joint rows; its pin was
# recorded before those statistics were folded into ``summary_rows``
FLAGS = ["--threshold", "srb>1.05", "--threshold", "tfr>=2", "--threshold", "e0_female<60",
         "--threshold", "srtp<=1", "--trend", "srb", "--trend", "srtp",
         "--joint", "rise=srb:1960:1975:>;e0_male:1960:1975:<",
         "--prob", "0", "--prob", "0.5", "--prob", "1"]


def test_cli_tables_match_their_pins(tmp_path):
    """``project`` and ``simulate --seed 7`` on the demo, ``summarize``
    and ``diagnose`` with default flags on a 200-draw prior sample, and
    ``summarize`` of that sample with the statistic flags."""
    inputs = ["--grid", str(DEMO / "grid.yaml"), "--initial-estimates-dir", str(DEMO / "initial")]
    assert main(["project", *inputs, "--out-dir", str(tmp_path / "proj")]) == 0
    assert main(["simulate", *inputs, "--elicitation", str(DEMO / "elicitation.yaml"),
                 "--seed", "7", "--out-dir", str(tmp_path / "sim")]) == 0
    grid = load_grid(DEMO / "grid.yaml")
    initial = load_theta(DEMO / "initial", grid)
    hyper = beta_from_elicitation(load_elicitation(DEMO / "elicitation.yaml"), initial)
    prior = tmp_path / "prior"
    prior.mkdir()
    write_samples(prior / "samples.csv", prior_sample(initial, hyper, grid, 200, seed=0))
    make_manifest(0, {}, grid, None, None, [], 0.0).write(prior / "manifest.json")
    for command in ("summarize", "diagnose"):
        assert main([command, "--sample-dir", str(prior), "--out-dir", str(prior)]) == 0
    assert main(["summarize", "--sample-dir", str(prior), *FLAGS,
                 "--out-dir", str(tmp_path / "flags")]) == 0
    written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*.csv"))
    assert written == sorted(PINS)
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in PINS}
    assert {f: d for f, d in got.items() if d != PINS[f]} == {}
