"""Golden CLI outputs: the exit code and the sha256 of stdout, as fixed values.

`test_deterministic_bytes` only compares two runs of the same code; these
digests pin the bytes of `gen` on six specs (two trees with a node of
degree 3 or more among them), of every `analyze` target and format on
four small hosts, the JSON of the 12-node fence's matchings, flip
digraph and lattice, the JSON of the 18-node fence's matchings and flip
digraph, the JSON of the 20-node fence's matchings, flip digraph, lattice
and decomposition, the JSON of the 16-leaf in-star's decomposition, and
the JSON report of `verify all`, so a refactor that changes any output
fails here.
Regenerate the table only for an intended output change:
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import json

import pytest

from matchlat import link_components, parse_spec
from matchlat.cli import main

# a node of degree 3 or more gets a face of 2 * max(in, out, 2) edges: an
# out-star's center a hexagon, and the 16-leaf in-star's center a 32-gon,
# which puts that star at exactly the default 64-vertex cap
IN_STAR_16 = "tree:" + ",".join(f"{v}>1" for v in range(2, 18))
GEN_SPECS = (
    "P(2,2)", "T(3)", "L(3,2,1)", "tree:1>2,3>2,3>4", "tree:1>2,1>3,1>4", IN_STAR_16
)
HOSTS = ("P(2,2)", "T(2)", "C6+L(2,1)", "tree:1>2,3>2,3>4")
TARGETS = ("matchings", "zdig", "lattice", "decompose", "faceposet", "dual", "graph")
FORMATS = ("json", "dot", "text")
# the 12-node fence: 377 matchings and 1,308 flip arcs, where arc order
# and many faces matter; the JSON targets whose payloads grow with the
# matchings (int rows, and the lattice's string elements), to keep the
# suite quick
FENCE_12 = "tree:1>2,3>2,3>4,5>4,5>6,7>6,7>8,9>8,9>10,11>10,11>12"
# the 18-node fence: 6,765 matchings and 34,690 flip arcs, int-row
# payloads long enough to span several of the emitter's pieces
FENCE_18 = FENCE_12 + ",13>12,13>14,15>14,15>16,17>16,17>18"
# the 20-node fence: 17,711 matchings and 100,610 flip arcs, the largest
# fence under the face cap; its lattice and decomposition read the
# order's bottom and top off a linear extension
FENCE_20 = FENCE_18 + ",19>18,19>20"
LARGE_CASES = tuple(
    f"analyze {FENCE_12} {target} --format json"
    for target in ("zdig", "matchings", "lattice")
) + tuple(
    f"analyze {FENCE_18} {target} --format json"
    for target in ("zdig", "matchings")
) + tuple(
    f"analyze {FENCE_20} {target} --format json"
    for target in ("zdig", "matchings", "lattice", "decompose")
) + (f"analyze {IN_STAR_16} decompose --format json", "verify all --format json")


def cases() -> list[str]:
    out = [f"gen {spec}" for spec in GEN_SPECS]
    for host in HOSTS:
        for target in TARGETS:
            for fmt in FORMATS:
                out.append(f"analyze {host} {target} --format {fmt}")
                if target == "dual":
                    out.append(f"analyze {host} {target} --format {fmt} --inner-only")
    return out + list(LARGE_CASES)


def write_hosts(directory) -> dict[str, str]:
    paths = {}
    for host in HOSTS + (FENCE_12, FENCE_18, FENCE_20, IN_STAR_16):
        if host == "C6+L(2,1)":
            parts = [parse_spec("L(1)").graph, parse_spec("P(2,1)").graph]
            G = link_components(parts).graph
        else:
            G = parse_spec(host).graph
        path = directory / f"host{len(paths)}.json"
        path.write_text(json.dumps(G.to_json()))
        paths[host] = str(path)
    return paths


def run_case(case: str, paths: dict[str, str]) -> str:
    argv = case.split()
    if argv[0] == "analyze":
        argv[1] = paths[argv[1]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"{code} {hashlib.sha256(out.getvalue().encode()).hexdigest()}"


GOLDEN = {
    'gen P(2,2)': '0 9dec7978b04d069e75ccd597a7ed32cbdeb2d1110936fa2749d5d813ca814100',
    'gen T(3)': '0 81e401ceec48325d1b0717f892d9e16e977f75f60ae9786374cef4ed54f9dc39',
    'gen L(3,2,1)': '0 81e401ceec48325d1b0717f892d9e16e977f75f60ae9786374cef4ed54f9dc39',
    'gen tree:1>2,3>2,3>4': '0 570c34bd60e4dfa7280cf938c56b1906f4d0db0ea2c5b2cf564d8442006ab44e',
    'gen tree:1>2,1>3,1>4': '0 8066b140e19fb6a45ed83f2a8cce001d953d21b669a1e535c0d524bdc3b77427',
    'gen tree:2>1,3>1,4>1,5>1,6>1,7>1,8>1,9>1,10>1,11>1,12>1,13>1,14>1,15>1,16>1,17>1': '0 05f756a99598dcd85f59aefd627632a4271a854af33205e8e7b095fee5afc922',
    'analyze P(2,2) matchings --format json': '0 3d3a454b70389a63bd0f8ffcc9b9ff2709b247c0974331f5666a834c13b1095a',
    'analyze P(2,2) matchings --format dot': '0 3d3a454b70389a63bd0f8ffcc9b9ff2709b247c0974331f5666a834c13b1095a',
    'analyze P(2,2) matchings --format text': '0 46bf365f206ace0aba6e883d30911bf3635c6d1c83cf2735f74cf47e3e58fce1',
    'analyze P(2,2) zdig --format json': '0 5e2730aaaa8701efb7d2ee312cb522b11e7fc061914a2d9bf7ca0e2f48f51329',
    'analyze P(2,2) zdig --format dot': '0 d125987eb4df1343ce320a13351b3d0d95db591b54ffef8a038f92fcbc72389b',
    'analyze P(2,2) zdig --format text': '0 cbb112994fbfe30b05306b0b9a67250f7e7dd8be373c7186e014fb9af898a5b4',
    'analyze P(2,2) lattice --format json': '0 63e610c3abf8e4b6168684c36d9f147943e7168dfac49a1c1e2b48cde8405c06',
    'analyze P(2,2) lattice --format dot': '0 2f04ecf56e183c5b2e7c9d58ccc81d0171c85b73493140be5cf4d3bc47f7e28e',
    'analyze P(2,2) lattice --format text': '0 e9926746817dfae1e70a2f1d00cfd64385a0043b0da1aa7b5b1d04dba9dfab62',
    'analyze P(2,2) decompose --format json': '0 6627abda00cffe76a914e8b27494b8a065549f694600fbd6ecd74f219e0527d3',
    'analyze P(2,2) decompose --format dot': '0 6627abda00cffe76a914e8b27494b8a065549f694600fbd6ecd74f219e0527d3',
    'analyze P(2,2) decompose --format text': '0 893174283a93311250859d961b12add36d64f3be01b9e2caeee409f9ecba8bf8',
    'analyze P(2,2) faceposet --format json': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'analyze P(2,2) faceposet --format dot': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'analyze P(2,2) faceposet --format text': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'analyze P(2,2) dual --format json': '0 79860063ae848c6185f5b565f6d78f0729f37e46b7cce8db98fffb2cf233684c',
    'analyze P(2,2) dual --format json --inner-only': '0 5e476908df8d04c8b577ad60f87d4eb795673051345639f6a04085b267087f54',
    'analyze P(2,2) dual --format dot': '0 8e2377be2ce377a77e9b026d781d30f8b5797216684cb1b66d21de73060666fd',
    'analyze P(2,2) dual --format dot --inner-only': '0 32eccfd9e47f66020a15dd7d126726c3c8d6fb0a073ddf3545247a994764e3f9',
    'analyze P(2,2) dual --format text': '0 79860063ae848c6185f5b565f6d78f0729f37e46b7cce8db98fffb2cf233684c',
    'analyze P(2,2) dual --format text --inner-only': '0 5e476908df8d04c8b577ad60f87d4eb795673051345639f6a04085b267087f54',
    'analyze P(2,2) graph --format json': '0 9dec7978b04d069e75ccd597a7ed32cbdeb2d1110936fa2749d5d813ca814100',
    'analyze P(2,2) graph --format dot': '0 5cfdd6f85cd11383e84ccfacc0e7bf369e18fea79bf0b943eddb90489b1fa992',
    'analyze P(2,2) graph --format text': '0 9dec7978b04d069e75ccd597a7ed32cbdeb2d1110936fa2749d5d813ca814100',
    'analyze T(2) matchings --format json': '0 a4ebe8d44792cf413200396d2b32d15c2c6ac85d148a7e5afec6db172f9c1498',
    'analyze T(2) matchings --format dot': '0 a4ebe8d44792cf413200396d2b32d15c2c6ac85d148a7e5afec6db172f9c1498',
    'analyze T(2) matchings --format text': '0 37dc0a17423fd8e29f33cec5555d62db6aae4434409b64c2569e770385271e55',
    'analyze T(2) zdig --format json': '0 1d5007a846eff1b457721233c4d0d3adb5ca6c82b9ddc0517fcaa83ec9104e30',
    'analyze T(2) zdig --format dot': '0 febd33266957a3f69c2bbf999b48a501653b8a09fd39d08c400ec22253e7c8ab',
    'analyze T(2) zdig --format text': '0 a932bb4bbbf0408ac5b76ac432eab0b29c7dec2e3bb9e1062682c1ca879ac904',
    'analyze T(2) lattice --format json': '0 afc95727aa97122931c9393388a0cff34a2ef5bfdbcf35d1c6ad5432ba0e03cd',
    'analyze T(2) lattice --format dot': '0 aa41f4f717873cf5dd9cf40eefa35e83355c94e08ae8c84de92e6a505853e1b7',
    'analyze T(2) lattice --format text': '0 22e7270226fd73939bf60db0b7da6d983d7e6e5bd3d4543fad3333084c396cba',
    'analyze T(2) decompose --format json': '0 579e6e5e404084dedda325820ba8129582ccaebc99117ce7031d81aa9c6838f1',
    'analyze T(2) decompose --format dot': '0 579e6e5e404084dedda325820ba8129582ccaebc99117ce7031d81aa9c6838f1',
    'analyze T(2) decompose --format text': '0 3d54a54e22ebcdc3fee606f0cce9d9f0955284ff9d71ae9fada54c69d9395af6',
    'analyze T(2) faceposet --format json': '0 f7a01714f26e14660076862e8784e427112efb6a4d6e822f13aa1e353ca6d096',
    'analyze T(2) faceposet --format dot': '0 8cbcb8e6dad3a6e21467c3a1b5767fa7372ba394ffde9e0c7d4a7760df580fed',
    'analyze T(2) faceposet --format text': '0 f7a01714f26e14660076862e8784e427112efb6a4d6e822f13aa1e353ca6d096',
    'analyze T(2) dual --format json': '0 a51c688530a589126711537cfcb9da612f684a5d9113dad54e48a4c5b9610231',
    'analyze T(2) dual --format json --inner-only': '0 1b595ea349ea4b6331566577512c50572d11912e9488fb316869a3532b79e4d0',
    'analyze T(2) dual --format dot': '0 d11bdd0f372d50633a085212bb1a1a63b3787aa97cc0c6ba6bb3cbaf3e25acee',
    'analyze T(2) dual --format dot --inner-only': '0 540ffcc4d0e253efda578b78021f509f416dc7ada927891953cea1ab6190a871',
    'analyze T(2) dual --format text': '0 a51c688530a589126711537cfcb9da612f684a5d9113dad54e48a4c5b9610231',
    'analyze T(2) dual --format text --inner-only': '0 1b595ea349ea4b6331566577512c50572d11912e9488fb316869a3532b79e4d0',
    'analyze T(2) graph --format json': '0 3c4a6271963e48011f4faa0ac7188df08def2d1ea68a57a5ae44798be66ff8bf',
    'analyze T(2) graph --format dot': '0 2c3e824bddc92aec5fbd4487cc8a8a8ebf3ed387ecbde741d879d8634d4ee46c',
    'analyze T(2) graph --format text': '0 3c4a6271963e48011f4faa0ac7188df08def2d1ea68a57a5ae44798be66ff8bf',
    'analyze C6+L(2,1) matchings --format json': '0 7b94f683b432fd22b68d3510bac02bf3c54de14a63bd3e83e90d71f190cabd54',
    'analyze C6+L(2,1) matchings --format dot': '0 7b94f683b432fd22b68d3510bac02bf3c54de14a63bd3e83e90d71f190cabd54',
    'analyze C6+L(2,1) matchings --format text': '0 46bf365f206ace0aba6e883d30911bf3635c6d1c83cf2735f74cf47e3e58fce1',
    'analyze C6+L(2,1) zdig --format json': '0 ba2f255c531d0f9aca8ee53278020ae1be1e0b87b30971c95c7db5642608be5c',
    'analyze C6+L(2,1) zdig --format dot': '0 d39a64c94d7a716df3e1a9b762a895890d65aa95473c410e838babf7f615fd51',
    'analyze C6+L(2,1) zdig --format text': '0 143571b59d487a458317146c8062a904ad85c6512ed1aa5ad674ac9e33e457cc',
    'analyze C6+L(2,1) lattice --format json': '0 4cef0e522db10065ab42a84efddd16c05f0d18f9cba64a28c14d18ffdcbe140d',
    'analyze C6+L(2,1) lattice --format dot': '0 6c634144caf0eb48be5bec2e1b81e18d3f11348f4d0f84ba427ab072816b2f65',
    'analyze C6+L(2,1) lattice --format text': '0 e9926746817dfae1e70a2f1d00cfd64385a0043b0da1aa7b5b1d04dba9dfab62',
    'analyze C6+L(2,1) decompose --format json': '0 a7a21b4e89fe22ea5045c104ba4b3330b44092b261f57a77d1fed06c0aa90c5c',
    'analyze C6+L(2,1) decompose --format dot': '0 a7a21b4e89fe22ea5045c104ba4b3330b44092b261f57a77d1fed06c0aa90c5c',
    'analyze C6+L(2,1) decompose --format text': '0 005add4270782ce358a5c5a8b77d181dfa9234a11a075d89ccb8adcd403bcda5',
    'analyze C6+L(2,1) faceposet --format json': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'analyze C6+L(2,1) faceposet --format dot': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'analyze C6+L(2,1) faceposet --format text': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'analyze C6+L(2,1) dual --format json': '0 9bcf5c506f38b19f5a3031d07f6306906ec9c0a9bc2c46989db35642ca796a96',
    'analyze C6+L(2,1) dual --format json --inner-only': '0 5c5fe22dce2ec378cd8b2c7737fdd63f7dcf3189f9e792243450ea894685f437',
    'analyze C6+L(2,1) dual --format dot': '0 269c446edffb55f0760eddcad08ad97c8b45d5b5828ed3b81a9f13aea4f80108',
    'analyze C6+L(2,1) dual --format dot --inner-only': '0 8c87437624494e5ab42b03b9ed343d6fdd61e4d528bf154336780243d3a90edd',
    'analyze C6+L(2,1) dual --format text': '0 9bcf5c506f38b19f5a3031d07f6306906ec9c0a9bc2c46989db35642ca796a96',
    'analyze C6+L(2,1) dual --format text --inner-only': '0 5c5fe22dce2ec378cd8b2c7737fdd63f7dcf3189f9e792243450ea894685f437',
    'analyze C6+L(2,1) graph --format json': '0 26b86d3222832f59a55cf3978b30030f89d193cc4826b9e2dfaf388dd40d7a02',
    'analyze C6+L(2,1) graph --format dot': '0 ea53eb2f71f545c395e8476812166d859a08235776163728a71e78e1a57b1589',
    'analyze C6+L(2,1) graph --format text': '0 26b86d3222832f59a55cf3978b30030f89d193cc4826b9e2dfaf388dd40d7a02',
    'analyze tree:1>2,3>2,3>4 matchings --format json': '0 b718d0d5dda0644b9f642b26a338711cbd56887b705044e6a8faa67ae8f2ec08',
    'analyze tree:1>2,3>2,3>4 matchings --format dot': '0 b718d0d5dda0644b9f642b26a338711cbd56887b705044e6a8faa67ae8f2ec08',
    'analyze tree:1>2,3>2,3>4 matchings --format text': '0 6e94aa55683fcf8b6034249e60439b6284a4d426c3499020709d3ea193eddeac',
    'analyze tree:1>2,3>2,3>4 zdig --format json': '0 7dede5e93a6cf96a974f82cb69989fc9e470572a048a2a3dd0675cda47aa3109',
    'analyze tree:1>2,3>2,3>4 zdig --format dot': '0 d0dd58560ac51a91e272fa961a9708d2c972fc27a260eacb187ac27c5d359f07',
    'analyze tree:1>2,3>2,3>4 zdig --format text': '0 d6e23201cad03f271c8635e3df0af402cc3de21a1cc1573fc8a6a7623651c21c',
    'analyze tree:1>2,3>2,3>4 lattice --format json': '0 6dcd13df15c2ff10d0bcd6165ca03e94df1d9a52bc291494f565a5ed5896c425',
    'analyze tree:1>2,3>2,3>4 lattice --format dot': '0 e5f89d201f6345fa0d6296b2f88e80c13fb74f42224dc1cbb08fde38037b8098',
    'analyze tree:1>2,3>2,3>4 lattice --format text': '0 1f8270b32f70979c566ea2d46c8dd419d65f9759fc9bb652d340cd62542e3c30',
    'analyze tree:1>2,3>2,3>4 decompose --format json': '0 134d5ae2e59e9ff5fb5a0c5b8c847da6447e3b5cf644096567e95862f38fc5f2',
    'analyze tree:1>2,3>2,3>4 decompose --format dot': '0 134d5ae2e59e9ff5fb5a0c5b8c847da6447e3b5cf644096567e95862f38fc5f2',
    'analyze tree:1>2,3>2,3>4 decompose --format text': '0 820de4cf415bcaf764284d352042af34099df022786ac3d7d84026083b30a80b',
    'analyze tree:1>2,3>2,3>4 faceposet --format json': '0 dab0837531e89a3795a67ba4304b3676808185bfaaaa8f579c30c60f41713ad0',
    'analyze tree:1>2,3>2,3>4 faceposet --format dot': '0 377ed13f6e0cc0a8406ea22bce9676e3da4d2a811d8f395b67085b8596569fb2',
    'analyze tree:1>2,3>2,3>4 faceposet --format text': '0 dab0837531e89a3795a67ba4304b3676808185bfaaaa8f579c30c60f41713ad0',
    'analyze tree:1>2,3>2,3>4 dual --format json': '0 396e5425ab21d2c02d5a2f3ef23437d7037d8bee23a12e9627beaa0da5c14203',
    'analyze tree:1>2,3>2,3>4 dual --format json --inner-only': '0 31e6f41f11f159f41ee9357f3aee72508b4dc84344349e6cd9af36cdf22852c3',
    'analyze tree:1>2,3>2,3>4 dual --format dot': '0 0a2986b3e797192bbe5ebe696bd8771736b25e0536829849762122b8c7f83934',
    'analyze tree:1>2,3>2,3>4 dual --format dot --inner-only': '0 f231e27140f9570a88db8e6d318129eff2310d3c30ade5ec6d65ae8639af2864',
    'analyze tree:1>2,3>2,3>4 dual --format text': '0 396e5425ab21d2c02d5a2f3ef23437d7037d8bee23a12e9627beaa0da5c14203',
    'analyze tree:1>2,3>2,3>4 dual --format text --inner-only': '0 31e6f41f11f159f41ee9357f3aee72508b4dc84344349e6cd9af36cdf22852c3',
    'analyze tree:1>2,3>2,3>4 graph --format json': '0 570c34bd60e4dfa7280cf938c56b1906f4d0db0ea2c5b2cf564d8442006ab44e',
    'analyze tree:1>2,3>2,3>4 graph --format dot': '0 7afb5012a6a595b20f3eab818c1c02e60de93ec70d5be031eb6f96f1a66b0a2b',
    'analyze tree:1>2,3>2,3>4 graph --format text': '0 570c34bd60e4dfa7280cf938c56b1906f4d0db0ea2c5b2cf564d8442006ab44e',
    'analyze tree:1>2,3>2,3>4,5>4,5>6,7>6,7>8,9>8,9>10,11>10,11>12 zdig --format json': '0 b042656305eb701be78c7522ff72118d13e45e0e0a42d8455682020a7651a61d',
    'analyze tree:1>2,3>2,3>4,5>4,5>6,7>6,7>8,9>8,9>10,11>10,11>12 matchings --format json': '0 eb7d5a5971da1405c41256128b7ee882df81d8622579f9d078394340609c6311',
    'analyze tree:1>2,3>2,3>4,5>4,5>6,7>6,7>8,9>8,9>10,11>10,11>12 lattice --format json': '0 807fccf40dba4932cb07f632c85e6108565b7bca3c77e6132dfc18eb26aa4dcd',
    'analyze tree:1>2,3>2,3>4,5>4,5>6,7>6,7>8,9>8,9>10,11>10,11>12,13>12,13>14,15>14,15>16,17>16,17>18 zdig --format json': '0 c128943bc6a50d8237ca3a4e14b5f647c6695118dc67ee1eff2fb9a5baf3af43',
    'analyze tree:1>2,3>2,3>4,5>4,5>6,7>6,7>8,9>8,9>10,11>10,11>12,13>12,13>14,15>14,15>16,17>16,17>18 matchings --format json': '0 47d58336bd83081807acb14e6adfeadfa98befff469cc7f6e8c3fe7eb114ff16',
    'analyze tree:1>2,3>2,3>4,5>4,5>6,7>6,7>8,9>8,9>10,11>10,11>12,13>12,13>14,15>14,15>16,17>16,17>18,19>18,19>20 zdig --format json': '0 e4c34dad087e898c8353bd28b63b9ef2a61e965e266842a4a72fc327dbb74e74',
    'analyze tree:1>2,3>2,3>4,5>4,5>6,7>6,7>8,9>8,9>10,11>10,11>12,13>12,13>14,15>14,15>16,17>16,17>18,19>18,19>20 matchings --format json': '0 546b9782e42a1c099b6d159a558381d080b783eaf12e7bd29acc5f513adfac75',
    'analyze tree:1>2,3>2,3>4,5>4,5>6,7>6,7>8,9>8,9>10,11>10,11>12,13>12,13>14,15>14,15>16,17>16,17>18,19>18,19>20 lattice --format json': '0 0ec4b95ddc74e2040057cff7a517ff21b86e4a539a27b183a8ca2eabad471cd1',
    'analyze tree:1>2,3>2,3>4,5>4,5>6,7>6,7>8,9>8,9>10,11>10,11>12,13>12,13>14,15>14,15>16,17>16,17>18,19>18,19>20 decompose --format json': '0 81b6555d868de73bd145bf4dc3722840a602e8667c6462ff1fb838afcb5fb0a9',
    'analyze tree:2>1,3>1,4>1,5>1,6>1,7>1,8>1,9>1,10>1,11>1,12>1,13>1,14>1,15>1,16>1,17>1 decompose --format json': '0 ba6619cc54ae66c3b9db2fead37b9ea655256a562993a0f6b449f18921c1bc8b',
    'verify all --format json': '0 39920ecdff122e01e20f322891fc8ad73fa7958a899d3ef069245672379f935d',
}


@pytest.fixture(scope="module")
def host_paths(tmp_path_factory):
    return write_hosts(tmp_path_factory.mktemp("hosts"))


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(cases())


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_output(case, host_paths):
    assert run_case(case, host_paths) == GOLDEN[case]


def test_fence_20_zdig_json_builds_no_matching(host_paths, monkeypatch):
    # the flip digraph's JSON is written from the walk's edge masks
    from matchlat import matching

    def refuse(*args):
        raise AssertionError("a Matching was built")

    monkeypatch.setattr(matching, "_edge_ids", refuse)
    case = f"analyze {FENCE_20} zdig --format json"
    assert run_case(case, host_paths) == GOLDEN[case]


@pytest.mark.parametrize("case", [
    f"analyze {FENCE_20} decompose --format json",
    f"analyze {IN_STAR_16} decompose --format json",
    "analyze C6+L(2,1) decompose --format json",
    "analyze C6+L(2,1) decompose --format text",
])
def test_certified_decompose_builds_no_lattice(case, host_paths, monkeypatch):
    # hosts whose elementary components' faces are faces of the host are answered
    # from the components, with no enumeration and no lattice
    from matchlat import cli, matching, ztransform

    def refuse(*args):
        raise AssertionError("a lattice or flip walk was built")

    for module, name in ((cli, "matching_lattice"), (ztransform, "matching_lattice"),
                         (matching, "_flip_walk"), (ztransform, "_flip_walk")):
        monkeypatch.setattr(module, name, refuse)
    assert run_case(case, host_paths) == GOLDEN[case]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        paths = write_hosts(Path(tmp))
        print("GOLDEN = {")
        for case in cases():
            print(f"    {case!r}: {run_case(case, paths)!r},")
        print("}")
