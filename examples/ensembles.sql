-- Ensemble classification over every stored model (paper §3.3), as plain
-- SQL. Reads `models (classifier BLOB, accuracy DOUBLE, ...)` and
-- `probe (pid BIGINT, a DOUBLE, b DOUBLE)`, and answers `(pid, label)`
-- per probe row, ordered by pid. Ties go to the smallest label.
--
-- Every query applies every model through `models m CROSS JOIN probe p`.
-- The join order does not matter: a model UDF looks each distinct
-- classifier up once and applies it once, wherever its rows sit.
--
-- Used by examples/model_management.rs, crates/bench/benches/ensemble.rs
-- and tests/paper_workflow.rs. Statements are separated by semicolons, so
-- no comment here may contain one.

-- Majority vote: one model, one vote.
SELECT c.pid, MIN(c.pred) AS label
FROM (SELECT v.pid, v.pred, COUNT(*) AS n
      FROM (SELECT p.pid, predict(p.a, p.b, m.classifier) AS pred
            FROM models m CROSS JOIN probe p) v
      GROUP BY v.pid, v.pred) c
JOIN (SELECT t.pid, MAX(t.n) AS top
      FROM (SELECT v.pid, v.pred, COUNT(*) AS n
            FROM (SELECT p.pid, predict(p.a, p.b, m.classifier) AS pred
                  FROM models m CROSS JOIN probe p) v
            GROUP BY v.pid, v.pred) t
      GROUP BY t.pid) b
  ON c.pid = b.pid AND c.n = b.top
GROUP BY c.pid
ORDER BY c.pid;

-- Highest confidence: the answer of the model most sure of its own.
SELECT c.pid, MIN(c.pred) AS label
FROM (SELECT p.pid, predict(p.a, p.b, m.classifier) AS pred,
             predict_confidence(p.a, p.b, m.classifier) AS conf
      FROM models m CROSS JOIN probe p) c
JOIN (SELECT p.pid, MAX(predict_confidence(p.a, p.b, m.classifier)) AS top
      FROM models m CROSS JOIN probe p
      GROUP BY p.pid) b
  ON c.pid = b.pid AND c.conf = b.top
GROUP BY c.pid
ORDER BY c.pid;

-- Accuracy-weighted vote: each model's vote counts its stored accuracy.
SELECT c.pid, MIN(c.pred) AS label
FROM (SELECT v.pid, v.pred, SUM(v.w) AS w
      FROM (SELECT p.pid, predict(p.a, p.b, m.classifier) AS pred, m.accuracy AS w
            FROM models m CROSS JOIN probe p) v
      GROUP BY v.pid, v.pred) c
JOIN (SELECT t.pid, MAX(t.w) AS top
      FROM (SELECT v.pid, v.pred, SUM(v.w) AS w
            FROM (SELECT p.pid, predict(p.a, p.b, m.classifier) AS pred, m.accuracy AS w
                  FROM models m CROSS JOIN probe p) v
            GROUP BY v.pid, v.pred) t
      GROUP BY t.pid) b
  ON c.pid = b.pid AND c.w = b.top
GROUP BY c.pid
ORDER BY c.pid;
