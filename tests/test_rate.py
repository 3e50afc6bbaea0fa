"""tools/rate.py, run as a script: the counts it reports, its times ignored."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def rate(command):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "rate.py"), command, "--src", str(ROOT / "src"), "--repeats", "1"],
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def test_rate_coradical_counts():
    # the script patches _CoradicalState._images to count the terms level 1 reads
    result = rate("coradical")
    assert list(result) == ["J@9", "J@11", "L@9", "total"]
    j9 = result["J@9"]
    assert (j9["built_terms"], j9["level1_terms"], j9["level1_restarts"], j9["chain_rows"]) == (10465, 4628, 1, 944)
    assert j9["rows_reduced"] == [16, 53, 115, 226, 234, 363, 175, 245]
    assert j9["rows_reinserted"] == [12, 29, 60, 110, 146, 217, 175, 245]


def test_rate_signature_counts():
    # the script patches _Echelon.insert to count signature's inserts; the
    # chain inserts through the same method, so the script builds it first,
    # uncounted, and hands it to signature
    result = rate("signature")
    assert list(result) == ["H6@9", "J@10", "L@11", "total"]
    counts = {key: (result[key]["products"], result[key]["inserts"]) for key in ("H6@9", "J@10", "L@11")}
    assert counts == {"H6@9": (2441, 3385), "J@10": (7019, 8452), "L@11": (1354, 1876)}


def test_rate_products_counts():
    # the script switches the product table's rows to a counting subclass of
    # their own class for one pass, and switches them back
    result = rate("products")
    assert list(result) == ["antipode J@9", "signature L@9", "total"]
    j9 = result["antipode J@9"]
    assert (j9["table_reads"], j9["entries"], j9["rows"], j9["stored_entries"]) == (160158, 21000, 602, 6047)
    assert (j9["lookup_hits"], j9["lookup_misses"]) == (17863, 376)
    assert result["signature L@9"]["entries"] == 1102
