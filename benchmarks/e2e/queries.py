"""SQL text the benchmark sends to the program.

The paper's six evaluation queries come from ``repro.paper_queries()``;
everything else the streams use is frozen here, so the inputs of a
measurement cannot drift with the code being measured.
"""

from __future__ import annotations

from typing import Dict

#: TPC-H Q3 (shipping priority): join-aggregate-sort.
Q3 = """
SELECT l_orderkey,
       sum(l_extendedprice * (1 - l_discount)) AS revenue,
       o_orderdate, o_shippriority
FROM customer, orders, lineitem
WHERE c_mktsegment = 'BUILDING'
  AND c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND o_orderdate < '1995-03-15'
  AND l_shipdate > '1995-03-15'
GROUP BY l_orderkey, o_orderdate, o_shippriority
ORDER BY revenue DESC, o_orderdate
LIMIT 10;
"""

#: TPC-H Q10 (returned items): four-table join with a wide GROUP BY.
Q10 = """
SELECT c_custkey, c_name,
       sum(l_extendedprice * (1 - l_discount)) AS revenue,
       c_acctbal, n_name, c_address, c_phone, c_comment
FROM customer, orders, lineitem, nation
WHERE c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND o_orderdate >= '1993-01-01'
  AND o_orderdate < '1994-01-01'
  AND l_returnflag = 'R'
  AND c_nationkey = n_nationkey
GROUP BY c_custkey, c_name, c_acctbal, c_phone, n_name, c_address,
         c_comment
ORDER BY revenue DESC
LIMIT 20;
"""

#: TPC-H-Q1-style pricing summary: one wide scan, eight aggregates.
Q1 = """
SELECT l_returnflag, l_linestatus,
       sum(l_quantity) AS sum_qty,
       sum(l_extendedprice) AS sum_base_price,
       sum(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
       sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
       avg(l_quantity) AS avg_qty,
       avg(l_extendedprice) AS avg_price,
       avg(l_discount) AS avg_disc,
       count(*) AS count_order
FROM lineitem
WHERE l_shipdate <= '1998-09-02'
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus;
"""

#: TPC-H-Q6-style forecast: a selective filter feeding one global sum.
Q6 = """
SELECT sum(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= '1994-01-01'
  AND l_shipdate < '1995-01-01'
  AND l_discount >= 0.05 AND l_discount <= 0.07
  AND l_quantity < 24;
"""

#: Clicks and distinct visitors per category over a filtered click-stream
#: (count(distinct) defeats the combiner, so this one does shuffle).
Q_CDIST = """
SELECT cid, count(*) AS clicks, count(distinct uid) AS users
FROM clicks
WHERE ts >= 1000
GROUP BY cid;
"""

LOCAL = {"q3": Q3, "q10": Q10, "q1": Q1, "q6": Q6, "q_cdist": Q_CDIST}


def sql_texts() -> Dict[str, str]:
    """Every query the workloads name, by name."""
    from repro import paper_queries
    texts = dict(paper_queries())
    texts.update(LOCAL)
    return texts
