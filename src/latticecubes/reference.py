"""Published values of NC(n) used for cross-checking (OEIS A098928).

Two published versions of this sequence circulate and they disagree
from n = 15 onward: a 100-term listing in the article text, and a
50-term output log from the companion computer-algebra run.  The
independent brute-force oracle in this package confirms the article
listing (NC(15) = 27190, not 27298); the log run double-counted one
cube record, which accounts exactly for the differences.  See the
README for the adjudication details.

COUNTS_LISTED is therefore the trusted reference; COUNTS_LOG is kept
only so the verify command can display where the bad run diverges.
"""

# the 100-term article listing (confirmed by the oracle and the census for n <= 100)
COUNTS_LISTED = [
    1, 9, 36, 100, 229, 473, 910, 1648, 2795, 4469,
    6818, 10032, 14315, 19907, 27190, 36502, 48233, 62803, 80736, 102550,
    128847, 160271, 197516, 241314, 292737, 352591, 421764, 501204, 592257, 696281,
    814450, 948112, 1098607, 1267367, 1456292, 1666998, 1901633, 2162179, 2450440, 2768346,
    3117935, 3501389, 3923178, 4384792, 4889323, 5439155, 6037660, 6687358, 7391669, 8154671,
    8979750, 9870158, 10830095, 11862711, 12972046, 14161848, 15436931, 16801993, 18263634, 19825948,
    21493019, 23269647, 25160816, 27171482, 29308957, 31577319, 33986616, 36540004, 39244371, 42106267,
    45131996, 48327502, 51700279, 55258019, 59011634, 62965766, 67132037, 71515527, 76127374, 80973598,
    86062187, 91401297, 96999986, 102866282, 109014085, 115457359, 122206348, 129266410, 136648555, 144364071,
    152426724, 160843660, 169626467, 178787563, 188347314, 198309846, 208694461, 219509943, 230767760, 242483634,
]

# the 50-term computation-log output (WRONG from n = 15 onward)
COUNTS_LOG = [
    1, 9, 36, 100, 229, 473, 910, 1648, 2795, 4469,
    6818, 10032, 14315, 19907, 27298, 36886, 49133, 64531, 83784, 107542,
    136551, 171599, 213524, 263202, 321849, 390415, 469932, 561492, 667305, 789317,
    929098, 1088500, 1269367, 1473635, 1703708, 1961706, 2251289, 2575291, 2936272, 3337026,
    3780455, 4269605, 4813854, 5414560, 6076915, 6804587, 7603120, 8476390, 9430481, 10471175,
]

# oracle ground truth, frozen from a brute_force_count run done before the
# census existed; the two published lists first disagree at n = 15 and the
# oracle sides with COUNTS_LISTED
ORACLE_FROZEN = {
    1: 1, 2: 9, 3: 36, 4: 100, 5: 229, 6: 473, 7: 910, 8: 1648,
    9: 2795, 10: 4469, 11: 6818, 12: 10032, 13: 14315, 14: 19907,
    15: 27190, 16: 36502, 17: 48233, 18: 62803,
}
