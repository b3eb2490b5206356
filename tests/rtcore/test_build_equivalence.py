"""The fast BVH build against frozen digests of the reference build.

``BVH`` builds by a per-axis Morton sort and a column-wise refit. Every
structure array it produces — ``order``, ``leaf_prims``, ``node_mins``,
``node_maxs`` and ``_live`` — must stay byte-identical to the
row-wise ``argsort`` + ``(L, k, d)`` slot-table build it replaced, both
straight after construction and after an ``update`` + ``refit``. The
digests below were computed with that reference build over a grid of
sizes, dimensions, dtypes, leaf sizes, degenerate fractions and
coordinate distributions (signed zeros included, since a reduction that
folds in another order can flip their bits).
"""

from __future__ import annotations

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.boxes import Boxes
from repro.geometry.morton import morton_encode, morton_order
from repro.rtcore.bvh import BVH

SIZES = (0, 1, 2, 3, 5, 17, 100, 1000, 4097, 100_000)
DISTS = ("uniform", "offset", "duplicate", "zero_extent", "signed_zero")
DEAD = (0.0, 0.1, 1.0)


def make_boxes(n: int, d: int, dtype, dist: str, dead: float, seed: int) -> Boxes:
    rng = np.random.default_rng(seed)
    if dist == "signed_zero":
        lo = rng.choice([-1.0, -0.0, 0.0, 1.0], size=(n, d))
        hi = lo + rng.choice([-0.0, 0.0, 0.0, 1.0], size=(n, d))
    else:
        lo = rng.random((n, d)) + (1e4 if dist == "offset" else 0.0)
        hi = lo + (0.0 if dist == "zero_extent" else rng.random((n, d)) * 0.05)
        if dist == "duplicate":
            pick = rng.integers(0, max(1, n // 8), size=n)
            lo, hi = lo[pick], hi[pick]
    boxes = Boxes(lo, hi, dtype=dtype)
    boxes.degenerate(np.flatnonzero(rng.random(n) < dead))
    return boxes


def digest(bvh: BVH) -> str:
    h = hashlib.sha1(str(bvh.n_leaves).encode())
    for a in (bvh.order, bvh.leaf_prims, bvh.node_mins, bvh.node_maxs, bvh._live):
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def cases():
    """(case id, n, d, dtype, leaf, dist, dead, seed): every n × d ×
    dtype × leaf size, with the distribution × degenerate fraction
    combinations dealt out in turn so each one meets every size."""
    combos = itertools.cycle(itertools.product(DISTS, DEAD))
    grid = itertools.product(SIZES, (2, 3), ("f4", "f8"), (1, 2, 4))
    for seed, (n, d, dt, leaf) in enumerate(grid):
        dist, dead = next(combos)
        yield f"{n}-{d}d-{dt}-L{leaf}-{dist}-{dead:g}", n, d, dt, leaf, dist, dead, seed


def build_and_update(n, d, dt, leaf, dist, dead, seed) -> tuple[str, str]:
    boxes = make_boxes(n, d, dt, dist, dead, seed)
    bvh = BVH(boxes, leaf_size=leaf)
    built = digest(bvh)
    if n:
        rng = np.random.default_rng(seed + 10_000)
        ids = rng.choice(n, size=max(1, n // 10), replace=False)
        boxes.overwrite(ids, make_boxes(len(ids), d, dt, "uniform", 0.0, seed + 20_000))
        bvh.refit()
    return built, digest(bvh)


@pytest.mark.parametrize("case", list(cases()), ids=lambda c: c[0])
def test_build_matches_reference(case):
    name, *args = case
    assert build_and_update(*args) == FROZEN[name]


@given(
    st.integers(1, 400),
    st.sampled_from([2, 3]),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_morton_order_is_stable_argsort(n, d, n_distinct, seed):
    rng = np.random.default_rng(seed)
    # Few distinct points, many repeats: almost every code is tied.
    pts = rng.random((n_distinct, d))[rng.integers(0, n_distinct, size=n)]
    lo, hi = np.zeros(d), np.ones(d)
    expect = np.argsort(morton_encode(pts, lo, hi), kind="stable")
    got = morton_order(pts, lo, hi)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, expect)


def test_morton_order_accepts_columns():
    pts = np.random.default_rng(0).random((50, 3))
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    np.testing.assert_array_equal(
        morton_order(list(pts.T), lo, hi), morton_order(pts, lo, hi)
    )
    assert morton_order(np.empty((0, 2)), np.zeros(2), np.ones(2)).shape == (0,)


def test_morton_order_rejects_unpackable_row_ids():
    with pytest.raises(ValueError, match="32 bits"):
        morton_order([range(1 << 32)] * 2, np.zeros(2), np.ones(2))


@pytest.mark.parametrize("leaf", [1, 4])
def test_build_transient_memory(leaf):
    """A 100k 2-D float32 build allocates at most 2 MB beyond the arrays
    it keeps (the row-wise build it replaced needed 4.4-5.2 MB)."""
    boxes = make_boxes(100_000, 2, "f4", "uniform", 0.0, 0)
    tracemalloc.start()
    try:
        bvh = BVH(boxes, leaf_size=leaf)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = sum(
        a.nbytes for a in (bvh.order, bvh.leaf_prims, bvh.node_mins, bvh.node_maxs, bvh._live)
    )
    assert peak - kept <= 2 * 2**20


#: SHA-1 of (build, build + update + refit) per case, from the reference build.
FROZEN: dict[str, tuple[str, str]] = {
    "0-2d-f4-L1-uniform-0": (
        "eaf2ec676ddc8e9c268a48634fe9842a5a240efc",
        "eaf2ec676ddc8e9c268a48634fe9842a5a240efc",
    ),
    "0-2d-f4-L2-uniform-0.1": (
        "ee1dcaee08589004d7ae18f386cd2e060faa318a",
        "ee1dcaee08589004d7ae18f386cd2e060faa318a",
    ),
    "0-2d-f4-L4-uniform-1": (
        "dc11f5079add2beb940b0be94bf059f47352d2f1",
        "dc11f5079add2beb940b0be94bf059f47352d2f1",
    ),
    "0-2d-f8-L1-offset-0": (
        "ac1eb8df68033a49485bcde61ccdd8fc05522561",
        "ac1eb8df68033a49485bcde61ccdd8fc05522561",
    ),
    "0-2d-f8-L2-offset-0.1": (
        "3a10a36581eb0f3d1a6ce323fb73fb5c16547379",
        "3a10a36581eb0f3d1a6ce323fb73fb5c16547379",
    ),
    "0-2d-f8-L4-offset-1": (
        "9889f068cfaba7162dc41fd823dc10e866af62b4",
        "9889f068cfaba7162dc41fd823dc10e866af62b4",
    ),
    "0-3d-f4-L1-duplicate-0": (
        "311831a364928a09b65c96b091d0aad7998c9b6d",
        "311831a364928a09b65c96b091d0aad7998c9b6d",
    ),
    "0-3d-f4-L2-duplicate-0.1": (
        "ca1eaa1218186a5ea7d1b0cf229ec24e4720472f",
        "ca1eaa1218186a5ea7d1b0cf229ec24e4720472f",
    ),
    "0-3d-f4-L4-duplicate-1": (
        "228abd315967e1a375dba16420a89cb14bbfd2ec",
        "228abd315967e1a375dba16420a89cb14bbfd2ec",
    ),
    "0-3d-f8-L1-zero_extent-0": (
        "29107fb0d5a9acbab8d6a953239a19094065ec16",
        "29107fb0d5a9acbab8d6a953239a19094065ec16",
    ),
    "0-3d-f8-L2-zero_extent-0.1": (
        "89291e5ec5d0f8f7266d40dff5a788e098ee9f7d",
        "89291e5ec5d0f8f7266d40dff5a788e098ee9f7d",
    ),
    "0-3d-f8-L4-zero_extent-1": (
        "d55b8fa6e62c98b1077cc9ecc167fcf1c9edf309",
        "d55b8fa6e62c98b1077cc9ecc167fcf1c9edf309",
    ),
    "1-2d-f4-L1-signed_zero-0": (
        "8fd82f2a93606a019e04466966a8105eb0252a42",
        "90c323f4abe4ab5e74834e7de411d4b6410005a1",
    ),
    "1-2d-f4-L2-signed_zero-0.1": (
        "bfb638346fbed6aea8edc819c8065ec07e48322e",
        "aa5b55b46468acbfbca2d8d996b78049229ba882",
    ),
    "1-2d-f4-L4-signed_zero-1": (
        "6916699099ff8a49c06d503418214b5c609ad76f",
        "3d69201a7d3184908cf7adb846fb6fba4217c43b",
    ),
    "1-2d-f8-L1-uniform-0": (
        "94369da1ecbe77d9f5d252e382cec7eaae8fa25b",
        "cc7085574e13c9bbc628c424aa3eea2f4f66dd5b",
    ),
    "1-2d-f8-L2-uniform-0.1": (
        "8c1c7c9fc3cb9c5f1b12419f51ceaf0c292e9018",
        "20a6a0d92d3648b3a185d9814000fc41f5c67f89",
    ),
    "1-2d-f8-L4-uniform-1": (
        "c8edbc099e5ae2f3396905306c9a0f53217c057e",
        "70344655e0e6198073fb6e060e5beb750ddad0a8",
    ),
    "1-3d-f4-L1-offset-0": (
        "9c68ee586508489d43e14436434c8e7b9645bb38",
        "6869f46da3d3b545bddc07bd124f99215fa00074",
    ),
    "1-3d-f4-L2-offset-0.1": (
        "ac7cd36f5b306ea05c6a2c74a135ba46b5b7580b",
        "de341cde7a5e225061a09d03bfd515a0e4680cc3",
    ),
    "1-3d-f4-L4-offset-1": (
        "81a0e90454faad164b152f755f886eb1e836dbd1",
        "3276c25c5ccafa2ccd0c5ed426219801e78c8fe9",
    ),
    "1-3d-f8-L1-duplicate-0": (
        "d41e8d0743775a66a1edce0ecee9efbe7c398b4a",
        "f1c17a95c74a86d942ec574a3b17884f3e25ec17",
    ),
    "1-3d-f8-L2-duplicate-0.1": (
        "43eb278c2e00091fb738a5f5888307810984bb7a",
        "e7e830fe08010afb55e9bfd69e9969704c9a0c12",
    ),
    "1-3d-f8-L4-duplicate-1": (
        "82c2136477b2c6b422db4d7eafd26ac2f4524849",
        "78837c31749dad02e8124c9bccb08227e9f4b6e2",
    ),
    "2-2d-f4-L1-zero_extent-0": (
        "61531d8d6640ee3cb76665051b51cbbbb11d5280",
        "16f32bb933cc416cdd07e5007807e4acabe609c5",
    ),
    "2-2d-f4-L2-zero_extent-0.1": (
        "7e548047e92640abbd2ea441aa46496f334eebc8",
        "22a12cfc0ac4900c5d3b70bd49edbbcc39f37ea0",
    ),
    "2-2d-f4-L4-zero_extent-1": (
        "59c75f98a8a159ee6ffa844087b9218cece73050",
        "acd492762d4c1459f96c27ae98e4ce61e456f5c8",
    ),
    "2-2d-f8-L1-signed_zero-0": (
        "ea012a6488cc80d7380bb2c83ff296f377f34588",
        "a45dbe9f655713178ada048485ebdcea78c7b1bd",
    ),
    "2-2d-f8-L2-signed_zero-0.1": (
        "d8b9ebfe4fea4b5ef3c59e70069451fb0a38d81d",
        "794cbc428a1cb34e7685a9e65275fae2c7966fd9",
    ),
    "2-2d-f8-L4-signed_zero-1": (
        "0c7bd9752103fd34cc5e6dea6d3378a63314e35e",
        "ad1cb10dcf413218cb5ffc3aca03a855f3b9214d",
    ),
    "2-3d-f4-L1-uniform-0": (
        "33e939df6eb939015215e2ae113b2b665f3a9bfe",
        "5b85b9ddadeec060833a8567e86ce7789063e76f",
    ),
    "2-3d-f4-L2-uniform-0.1": (
        "f8432c2b34f1746d908ef01c101aa06bf087e246",
        "858121f033765677a069c344fcb3f5bf4e4597b9",
    ),
    "2-3d-f4-L4-uniform-1": (
        "1fa2a155db4950b76abc36cb93abe748027473e5",
        "d1095c951f55623b5375d75ea8fb304211bca54f",
    ),
    "2-3d-f8-L1-offset-0": (
        "4b592caa07c27d60a5c003f57f0ef3c3996af5c1",
        "959eed14c800ced987af33076f4b7ba7bfb28da1",
    ),
    "2-3d-f8-L2-offset-0.1": (
        "2701656d302a1eedf9fbd5bbd358a1f50add5dc9",
        "4afc082c094c5ed588c901bf0ca57ee88507c0ff",
    ),
    "2-3d-f8-L4-offset-1": (
        "a7ceece35e960ba0822f97d36f9dacd7ea0a8b04",
        "95395f2c8ea8b20cab5cb93c308a0f38c1a4193d",
    ),
    "3-2d-f4-L1-duplicate-0": (
        "e9b7ca630172c828b9a327c9248e4001884a8f01",
        "62a96a3c95348aa0d87a359fca9f5a97d69982c4",
    ),
    "3-2d-f4-L2-duplicate-0.1": (
        "51c42211e298852ac111d6082023782b6c9eff9d",
        "c452969e8c6c27aa7622d059d8d8b67c5a608e50",
    ),
    "3-2d-f4-L4-duplicate-1": (
        "adc998e98d3a780724ceabbb0e43129e2def7760",
        "08c8a8b637064a0f73bd8780ea9c4d917f5b340c",
    ),
    "3-2d-f8-L1-zero_extent-0": (
        "24fd7a506288b8a625e4b0fa7fdf297945339f1c",
        "a53bdb97b71f260881cf4b6595dee75e342dea26",
    ),
    "3-2d-f8-L2-zero_extent-0.1": (
        "2d639a35df740840d83f46e985c22bae8d769dd1",
        "d86d65e60631c73f52e062ab45d3f415560d8630",
    ),
    "3-2d-f8-L4-zero_extent-1": (
        "e2a02d6b727a40fe120c0ddd24887eeddb561434",
        "f41e35b1e5f20ab28187a826153fc5d8b0f30f9c",
    ),
    "3-3d-f4-L1-signed_zero-0": (
        "75e81272cbd9a239ff22814dcc2c59c5896c514a",
        "ed52bd4339046a94a5db4d4dc6d26fb12e8103e1",
    ),
    "3-3d-f4-L2-signed_zero-0.1": (
        "5b21d276babe395ed618215fe018901b7d4677af",
        "d899845dc8eeacb95eb9780b632bf0eec257cd2d",
    ),
    "3-3d-f4-L4-signed_zero-1": (
        "cf2bead3f83a581247e911d55e4ef25a104e2352",
        "ba385c31d1705024a81223feaa75dc476d41d52a",
    ),
    "3-3d-f8-L1-uniform-0": (
        "6a119eb1581a4627c7db9272e497d6269090c307",
        "5e7aa9a31db6b21c95725fb957e2dbe9adf32da4",
    ),
    "3-3d-f8-L2-uniform-0.1": (
        "84e4eaf96f5aeb38e2d6f3a0e2bca1890acf8d3f",
        "4d20f01abeaa39161a17a107583f6785886f7739",
    ),
    "3-3d-f8-L4-uniform-1": (
        "405ebfca670c1c9879ec4df06b5deb1fd664b5d8",
        "cf5b763f3d341114f38514330d15851f2acf7e77",
    ),
    "5-2d-f4-L1-offset-0": (
        "0b8dace4627115d843d0d988927987d21af1aa44",
        "b9293f987ba0ce871de459624d0666983c5a4cd4",
    ),
    "5-2d-f4-L2-offset-0.1": (
        "d57f80567e203a4b960f347866908d2616ac6d7f",
        "da7d4a8f217f0649ead172649ba20dfa517ae06e",
    ),
    "5-2d-f4-L4-offset-1": (
        "b0c521daf70b150028c5de27a396aac0e7fd05b0",
        "f0e5860e0443cb81892a82e57023ae39d0dda941",
    ),
    "5-2d-f8-L1-duplicate-0": (
        "20b68aea0c0b061552d7510d9c965494187caec3",
        "5edef72323d779cea5f76cb33597fd9ca1d89172",
    ),
    "5-2d-f8-L2-duplicate-0.1": (
        "c282a25e039b1c5eb921701e47886baa8ae886f2",
        "6917c929fa1c3e194b574a8c8bc4f42d06416371",
    ),
    "5-2d-f8-L4-duplicate-1": (
        "981baf50edbdb2a48ef33b26640dacbcf013ce46",
        "95d9d62312433f4a87ca115e3242c2ddd62b31b8",
    ),
    "5-3d-f4-L1-zero_extent-0": (
        "c75c1b050482a219c3c46551b376816d1323a346",
        "fd7e9f54be2dd66debd9af5d984239a89fe406ba",
    ),
    "5-3d-f4-L2-zero_extent-0.1": (
        "2233964d8c3b303a8bab7542a38d13b08d2487c6",
        "ff6c4c1528b14a96402675a78e1b1bc6f78017f3",
    ),
    "5-3d-f4-L4-zero_extent-1": (
        "e285cb150d3cd5389b6318b03ddf4ae2f47fa380",
        "04da96205ab8b428c509981d7bd1a6fcd265bff4",
    ),
    "5-3d-f8-L1-signed_zero-0": (
        "176b01904bcd6f1eb6b42f84305170cb7078a076",
        "aa61a757e883c69551bfb30ebe02009cce48b1c4",
    ),
    "5-3d-f8-L2-signed_zero-0.1": (
        "7b984d94fd0c1eede632af32aa0a367db739d81e",
        "667d1663b760cf54173dd94e5e3eac727285f7c3",
    ),
    "5-3d-f8-L4-signed_zero-1": (
        "3630267477d9729f3d575b3432963dc3a8aa4cf4",
        "cca5723ed990ed0e50b8fe82ae70f91b6f553a53",
    ),
    "17-2d-f4-L1-uniform-0": (
        "8a176b6f28b5f2217390c1cae6ef467d3b40899d",
        "c69bf79b92448d46000a12e41962e30b7e40f6f3",
    ),
    "17-2d-f4-L2-uniform-0.1": (
        "a9fb503cc0646d6163fc040de4f9b9064af2ca88",
        "b22d5bf4486f1b5f6a039700749f15a7c7115df1",
    ),
    "17-2d-f4-L4-uniform-1": (
        "0a331137fc37b096bb81ff57a6bc20b3ac6c5351",
        "ab5c50c362c405e8a746aad9bbf1a9ab045cec03",
    ),
    "17-2d-f8-L1-offset-0": (
        "b045db58db21b1be4d1a5bc8fe4ea15f6aed850e",
        "c8049bf5284926d5c3857a9e8d726cfb0e7993a0",
    ),
    "17-2d-f8-L2-offset-0.1": (
        "a69e3a8cf094d0944b6519065c2e73775784a57f",
        "a20c7a94440c415c118ab9cb71227998ed29870e",
    ),
    "17-2d-f8-L4-offset-1": (
        "4df852788b1369763e7a58f3b6bcde302c96d042",
        "ac3e6f449ff6428605a57f13f9bea6c792580f42",
    ),
    "17-3d-f4-L1-duplicate-0": (
        "f02ae978a4bb7a2b2808cea23393f85f8434c462",
        "7b0d39ccf5f2a5d06759c43f2db67bbbd6321a22",
    ),
    "17-3d-f4-L2-duplicate-0.1": (
        "c2925937ef55de86903d58335df34ffe91356f78",
        "88138fa81a969e42b22bb115ba6bbd62b1e2e9a0",
    ),
    "17-3d-f4-L4-duplicate-1": (
        "6d092b1c6f8056ebf8512d171d0b86a151fe451b",
        "1d1c4ff989cea378a75a973f4982bc9a013ffe33",
    ),
    "17-3d-f8-L1-zero_extent-0": (
        "21abfa3d1ce19ef153b380d7aa92c8e0887f3995",
        "fdf5e4b79968ea87e7978a61930df44a1815b3cb",
    ),
    "17-3d-f8-L2-zero_extent-0.1": (
        "48d4d158804f695408696451cddb32b918c854f4",
        "13d8a9531aec7e6d51d31c2ef433e48a88813ed7",
    ),
    "17-3d-f8-L4-zero_extent-1": (
        "870f820f5493ff84ac32a09231f850a57d8457e8",
        "eea48878d6a9a3e6c34c22712959cb8e89605917",
    ),
    "100-2d-f4-L1-signed_zero-0": (
        "cca303295b945e07729a29f621017e576b1bcc76",
        "b45a594ca151ac375b02ea6db5ed31d5678f87fc",
    ),
    "100-2d-f4-L2-signed_zero-0.1": (
        "db7985b76eac127567f92535ef728283c0e92302",
        "5c2f0c057613d885b812a9723deef111f928dc2d",
    ),
    "100-2d-f4-L4-signed_zero-1": (
        "0285d2eaa49374ac29fff83ee17a58d10385f7cf",
        "d9f4105effcf7a38cfadb235e83a9f5bfe0caaa1",
    ),
    "100-2d-f8-L1-uniform-0": (
        "9ae1fe61b2fb886881375051e19431e8b3024839",
        "e4cd76c271a3ea985720125e66b4adc4a5b58219",
    ),
    "100-2d-f8-L2-uniform-0.1": (
        "91ab20ae6394b8c0521af723a95615fe579350ce",
        "de4bdcde43fd4959cb65a1fc01612a6c5b546ee3",
    ),
    "100-2d-f8-L4-uniform-1": (
        "d5c35332ead631d723a94d5afdbcace93354dff8",
        "7bf4458573076a9ca9459e3ed33b2d3358ad0811",
    ),
    "100-3d-f4-L1-offset-0": (
        "375368d0102683de850c6298ed46e5d31560a651",
        "26170d4ea67837dcf71dc36797304ec3049240ce",
    ),
    "100-3d-f4-L2-offset-0.1": (
        "db1451634c543fe1f61840b8eb608c111cee4a0c",
        "8dee4c6a70bfbcfdacc73e12c0907e256be21bc9",
    ),
    "100-3d-f4-L4-offset-1": (
        "17025cae452e93738af24632488d97301e93cd58",
        "bed91a83b1a1a075f48620232804f4ae526d73b1",
    ),
    "100-3d-f8-L1-duplicate-0": (
        "b8ab828125698c077e6bd22b672152c35b188ea9",
        "4515fdfa47f02c36a8f6f48a17468e462a67409f",
    ),
    "100-3d-f8-L2-duplicate-0.1": (
        "37cbd03fa57ac43956c935e3111ba71b8b741269",
        "4806dc5d061b759a00610af4b03e5142b3ef7a24",
    ),
    "100-3d-f8-L4-duplicate-1": (
        "dfddcaeb471b1da3e826fad1a4e4d4fc44e475d3",
        "fa94c9a38f4888488067bd4cd702b3b90d54a57f",
    ),
    "1000-2d-f4-L1-zero_extent-0": (
        "49cb2090b6ef29046480e11364b0eba69d4087ed",
        "eb9f0fb231c9ca588fb0b7dbc0f48dfd09777d4f",
    ),
    "1000-2d-f4-L2-zero_extent-0.1": (
        "942c298452bbf5e129700268707790cef4292e0d",
        "fbdbf6519f576f9536b874947dd68bd316051fcd",
    ),
    "1000-2d-f4-L4-zero_extent-1": (
        "d5dfd1349e7ef9eeb5180e11d3785f38cf9fa33f",
        "64a1d91fde7ce271e0e1e4465ad035bf053f0418",
    ),
    "1000-2d-f8-L1-signed_zero-0": (
        "1b4180543dc41adbd19decba250c07338d1b1822",
        "558858b2e56c72f0a920fadda76099184a7a950d",
    ),
    "1000-2d-f8-L2-signed_zero-0.1": (
        "c23f0c931c0b6e6438d4864f54cf59bdeb68cc00",
        "271f199ccd375cc67aec45df7f0026af85b3adc6",
    ),
    "1000-2d-f8-L4-signed_zero-1": (
        "ec92692b88bf18cd60a43dff5cfb013b2c4c4532",
        "ad39ec5adb0e83ebecfce9f7f786ad497d087327",
    ),
    "1000-3d-f4-L1-uniform-0": (
        "5c413d074883b5e2f286d1406ef64bb45b040eee",
        "ef7ca82b2f223d2da4c3c96a471c05e2d8643088",
    ),
    "1000-3d-f4-L2-uniform-0.1": (
        "270d3af4ed2eade0051891ec83f36b994da070a9",
        "dd4c1945a8ea991272309301601a77d840562974",
    ),
    "1000-3d-f4-L4-uniform-1": (
        "d9acaf1844fcf16738f069b7eb6836453fe97e79",
        "7632a949e39ccd7eab61b3ad61e22cb0a4431050",
    ),
    "1000-3d-f8-L1-offset-0": (
        "c080e0d92c5878eaa19d613520c22d8c5026defb",
        "f4c20551c10f01e2844e90ea8531e3491a98dde4",
    ),
    "1000-3d-f8-L2-offset-0.1": (
        "2fbf1a80dea6b03e0280e5f40a3d6dbd70f848d1",
        "3fa16dedac1e5fdae836332ad0e5dd69e4e7c78e",
    ),
    "1000-3d-f8-L4-offset-1": (
        "b67ba86919ebb013407bd68b5acbb4eb47a72520",
        "0e6be42ff2b3552e4ad3b843a3454a8c408f465c",
    ),
    "4097-2d-f4-L1-duplicate-0": (
        "40eb99170c3c26f325701794db10ae13f4f3a6bc",
        "b0fd782f674abc3a165a35227c35ea36d8c99a30",
    ),
    "4097-2d-f4-L2-duplicate-0.1": (
        "2c8d5a4a77c7d211da79bdef77d7a33b5ae16e2a",
        "940774384558a1ed96d423088752957752f33fe9",
    ),
    "4097-2d-f4-L4-duplicate-1": (
        "a2d8f38bc119469f35b30609ceba8eefef409ea3",
        "22ad08b08d40211e21930fb0392e36e06373ed32",
    ),
    "4097-2d-f8-L1-zero_extent-0": (
        "d8f5a530e3f83ce4c135deaeb042c23d4cd54099",
        "b1f91cb32ac03956c530aef8623c3592cd12ed80",
    ),
    "4097-2d-f8-L2-zero_extent-0.1": (
        "a2c9607e8a5a6ec2a741ee0235631e2c8bacaaaf",
        "e3f47cca7def49d8074c359ab6f5e73350f658f4",
    ),
    "4097-2d-f8-L4-zero_extent-1": (
        "8f0e7d88546cce0b862c36a4a2a93a00e9cc2977",
        "efddeda8209c6b8086d41dcdbee4f267e7fdb41c",
    ),
    "4097-3d-f4-L1-signed_zero-0": (
        "54caa308609aa5d9deb550cebffd22cab5789298",
        "cfcda36595fea61e01702014750df016198c8bda",
    ),
    "4097-3d-f4-L2-signed_zero-0.1": (
        "f9077871373a2696610344edb4892e8c05190057",
        "4073c6923894dc35e5e8e59b723f93379e41b237",
    ),
    "4097-3d-f4-L4-signed_zero-1": (
        "a286e464622b5d35e7f258aa8d6acef93aa5c33f",
        "d591eb32f62e5011a0c0f612ba2894f1e5dd69e7",
    ),
    "4097-3d-f8-L1-uniform-0": (
        "e5cb61e599176cb0e1553f6cb3302129c7d2f50e",
        "0b1ec6db4f3aa83e84da78524586b2f9c314dcb9",
    ),
    "4097-3d-f8-L2-uniform-0.1": (
        "6b14ba5a9b3650f0bd86ea01ce54374669e55e9c",
        "b0cf44ab2d3b078862a8c5fd97cdd5de1c47b361",
    ),
    "4097-3d-f8-L4-uniform-1": (
        "727d3977a4a7eca40dfbef1ac6184ffe898d0a95",
        "bfd0b7ce3927503ab96085c118c1fc41e949869c",
    ),
    "100000-2d-f4-L1-offset-0": (
        "3a12b43bfa5c35cf9e01c9b515dc5f80959024a3",
        "2e685c5ef5fc3bed82e64a18c87b9e99595d2649",
    ),
    "100000-2d-f4-L2-offset-0.1": (
        "4524aa1e2f2ca8c8d18706cc3e1403072a7133af",
        "b5cd1022f68aceb5dc85a702eec3c2be5c6d0019",
    ),
    "100000-2d-f4-L4-offset-1": (
        "06f3c5eb376e80e7962701c7fa62259d52835757",
        "3760bcbfbb0b5059328e06ea6e8c11b9e3d9689d",
    ),
    "100000-2d-f8-L1-duplicate-0": (
        "32dc6790b435f24aaf1f3af91bc9b0e6fe29e689",
        "bdf00d46988286a0b5f6a5a88c9b97961a3ce225",
    ),
    "100000-2d-f8-L2-duplicate-0.1": (
        "0fa65b7bc4a641d9564ec7508a79a9ce272e5978",
        "3489f6ec0d7cc6900dc68d2bad628a75304e3599",
    ),
    "100000-2d-f8-L4-duplicate-1": (
        "433b09b467f749b05d17c3c3ce56b78e0d5f8bee",
        "9169330552e788109edc779ff4b3c72422132816",
    ),
    "100000-3d-f4-L1-zero_extent-0": (
        "f3f6582f653ee2e236b83f8820aa49198c841743",
        "aa4543e983e8c53dac5f4a812692cd9f354a2dcb",
    ),
    "100000-3d-f4-L2-zero_extent-0.1": (
        "8e00014ec32d77c2d4200e4c96d6c7643853b6bb",
        "a6f1054a7d07b6a0e36de39d2c0ebd0f8b7ac80f",
    ),
    "100000-3d-f4-L4-zero_extent-1": (
        "7ea23f09b19e29526ab72a9378a8e6ec5ef70a53",
        "34c71bba5d4bef9d372400c269879dc7822e2a84",
    ),
    "100000-3d-f8-L1-signed_zero-0": (
        "4cca2f861e1d59c8c23c88ac8afc54e5a873b306",
        "83f604ab7a6ebaa9be8e6f55bd8e18867639ccf2",
    ),
    "100000-3d-f8-L2-signed_zero-0.1": (
        "4c9c28da570d4b0a67fc0b77505ec04462ec1d15",
        "d5d1aa8b85fedef70b1c164edaa5dd3d5ed2c105",
    ),
    "100000-3d-f8-L4-signed_zero-1": (
        "e100e8455414c84772794498ac1450442ce7da3f",
        "de523b5d070673919c42b7e67f5bfdd05caffdf6",
    ),
}
