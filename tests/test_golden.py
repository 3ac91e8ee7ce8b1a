"""Golden outputs: whole-command results pinned by digest.

Each case runs one command through ``cli.main`` and compares the sha256 of
its stdout and of its stderr, and its exit code, with values recorded from a
known-good build.  The set covers ``table`` for every family, symbolic and
at one pinned parameter value, in CSV (and JSON for two families); ``eval``
for every family; ``verify --identity all`` in both modes, at the parameter
0 and at a pole; a low ``--precision`` warning; and a pole in ``eval``.  Any
change to a value, its canonical text, the row order or the JSON layout
shows here.
"""

import hashlib
import shlex

import pytest

from degenstir import cli

EMPTY = hashlib.sha256(b"").hexdigest()

# (argv, exit code, sha256 of stdout, sha256 of stderr)
GOLDEN = (
    ("table stirling1 --n-max 6", 0, "acaae46e5bdfb25d657dae1d08827143ea2c6afd6c91d31e7afd85e613ea4dc0", EMPTY),
    ("table stirling2 --n-max 6", 0, "ea9c14c09c5a842ff229cacc09bd668a978e7046d945def68c12da289daa1552", EMPTY),
    ("table stirling2r --n-max 6 --r 2 --k-max 3", 0, "e72ea79b3a7ba1b4b16840696d969d1049cf991ed688e4ac4486fb572e05f13e", EMPTY),
    ("table stirling1r --n-max 6 --r 2 --k-max 3", 0, "44c4d9f8f4f970e62dff7d6d39d55fba8f038c19ce958fb08760b125151422ab", EMPTY),
    ("table bernoulli --n-max 6 --alpha 2 --x 1/2", 0, "d677c8456a3761415756f349a5c7ea622560676d16387f9924ce3336d274a34e", EMPTY),
    ("table trunc-bernoulli --n-max 6 --r 2 --alpha 2 --x 1/2", 0, "f1207e19a4b972343d4c43a870c7612320be913cb7b6407d5216a24c5129501c", EMPTY),
    ("table bell --n-max 6 --xs 1,2,3/2,-1,5,1/3", 0, "efd77a2d76bfae94a756465fe45b76b585b0e1762b358ef095e2e5b2f32d1a58", EMPTY),
    ("table klambda --n-max 6 --xs 2,-1/2,3,1,7,1", 0, "aa6a15ad050aaca3f4dade27e697596b894bba7ea26711815308692df26e1547", EMPTY),
    ("table stirling1 --n-max 6 --lambda=-2/5", 0, "9c856c352a1a8e7166ea241fd79ae627b68faaa27342b069b0ad52bfe381733e", EMPTY),
    ("table stirling2 --n-max 6 --lambda=-2/5", 0, "8b7b2de2d2416ba1505929a21734e5ef9913f00565ba521511f835c3a6045974", EMPTY),
    ("table stirling2r --n-max 6 --r 2 --k-max 3 --lambda=-2/5", 0, "b4dbfa1ff820bba7f4151c0f9a1a5a7d0cd68a75bd3e1952a68f2cbb8f866d04", EMPTY),
    ("table stirling1r --n-max 6 --r 2 --k-max 3 --lambda=-2/5", 0, "0951a9c7447d782f0488d68e0b1946023c5eaa02e306bb164fb77792443f23fe", EMPTY),
    ("table bernoulli --n-max 6 --alpha 2 --x 1/2 --lambda=-2/5", 0, "014ac1ca64973fecfd462ada49781f3daef469261687f75cfab9d31266cb7df0", EMPTY),
    ("table trunc-bernoulli --n-max 6 --r 2 --alpha 2 --x 1/2 --lambda=-2/5", 0, "ecec72f62673b792ff89ce3ba70fc5477394a66bf6a009185d8adf0d34895b54", EMPTY),
    ("table bell --n-max 6 --xs 1,2,3/2,-1,5,1/3 --lambda=-2/5", 0, "efd77a2d76bfae94a756465fe45b76b585b0e1762b358ef095e2e5b2f32d1a58", EMPTY),
    ("table klambda --n-max 6 --xs 2,-1/2,3,1,7,1 --lambda=-2/5", 0, "912eb393dddc290d7d3b21d4276bdcc9cfa2d9d2bc8425dff1b089cede6e5a9e", EMPTY),
    ("table stirling2r --n-max 6 --r 2 --k-max 3 --lambda=-2/5 --format json", 0, "d5e8db92c87810057034d1569d8c3b74e20cc4df8cb69238bf6d869c9305b575", EMPTY),
    ("table bernoulli --n-max 5 --format json", 0, "d3b375c99bd92928b337dcecfe038e7698ad88b4459d3bee79a012c323bac76e", EMPTY),
    ("eval stirling1 --n 5 --k 2", 0, "38e6535424ead98461ff624a0c19e84ea1f6f471f74a59afee2739efba612a6c", EMPTY),
    ("eval stirling2 --n 5 --k 2", 0, "02a6af78efa6ca749770b7961eb6086a064593544679d2e8ad2b4bb974245aed", EMPTY),
    ("eval stirling2r --n 7 --k 2 --r 3", 0, "72ec32f70f9986a1abdce43c8aa906a592295c941f9e921a0a43df8ac0201ca1", EMPTY),
    ("eval stirling1r --n 6 --k 2 --r 2", 0, "64c264f6cbd11ab06d707e5fbbfdd8c973685c3881749c0439848e530eee997f", EMPTY),
    ("eval bernoulli --n 4 --alpha 3 --x 2", 0, "32e136de8f244148710adaba4a04a49369a129f58fc220405c3497e501a9e5c9", EMPTY),
    ("eval trunc-bernoulli --n 3 --r 3 --alpha 2 --x=-1/3", 0, "e44758f3ecd0c1f093fb10e5d805668256a6bedc04cba05bf82b690c623a04e4", EMPTY),
    ("eval bell --n 5 --k 2 --xs 1,1/2,3,4", 0, "90d7ec0f0acef104d8b6252794295f661a0149634868d02a1ae0c358099638f5", EMPTY),
    ("eval klambda --n 4", 0, "04fec010e4bdeacb4696889b43e9af49cac1d3e4521ea50c1f0eb7dbec55726e", EMPTY),
    ("verify --identity all", 0, "c357b08bb2fec3f6c0edc9661eabb06acc1db7c945188bbc1c7fc56df94a20f3", EMPTY),
    ("verify --identity all --lambda=2/3", 0, "a40eb40468348ed5d6096c07d3f1d678745c9b4d4ffc5d7aa1af7ea1bfbc4cdc", EMPTY),
    ("eval stirling2 --n 3 --k 2 --precision 2", 2, EMPTY, "c49af50ec6f540a342bab788bea6ac265dfc32d0d15726819639c6f5f1b859e3"),
    ("eval trunc-bernoulli --n 1 --r 2 --lambda=1", 2, EMPTY, "436ece22a685627dc8cf16ff11c6dbc69a26a5024eaad4e3054df329ee1f7fd0"),
    ("verify --identity all --lambda=0", 0, "b79c0051e88d0b2c9c302138b67a4feb27e153bff81cc7bb3707b5b084f461cc", EMPTY),
    ("verify --identity all --lambda=1/2", 2, EMPTY, "436ece22a685627dc8cf16ff11c6dbc69a26a5024eaad4e3054df329ee1f7fd0"),
)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv,code,out_sha,err_sha", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_output_matches_golden_digest(capsys, argv, code, out_sha, err_sha):
    got = cli.main(shlex.split(argv))
    captured = capsys.readouterr()
    assert (got, _sha(captured.out), _sha(captured.err)) == (code, out_sha, err_sha)
