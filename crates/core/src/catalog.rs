//! The cost catalog: tunable parameters of the §VI cost model.
//!
//! The paper: "The cost metrics we used were provided to our system as a
//! cost catalog file." The same file format is supported here — one
//! `key = value` per line, `#` comments, and per-table amortization
//! factors as `af.<table> = <value>`.

use orm::Prices;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Cost-model parameters (Figure 12's table, plus engine knobs).
#[derive(Debug, Clone, PartialEq)]
pub struct CostCatalog {
    /// `C_Z`: cost of one imperative statement, ns (paper: 30 ns). With
    /// `server_row_ns`, one of the two prices a run is also charged at
    /// ([`CostCatalog::prices`]).
    pub cz_ns: f64,
    /// `C_Y`: cost of one F-IR/program operator evaluation, ns.
    pub cy_ns: f64,
    /// Server-side per-row cost: drives the `C^F_Q`/`C^L_Q` estimates and
    /// is what a run started from this catalog charges per row-touch.
    pub server_row_ns: f64,
    /// Default probability of a conditional when statistics cannot help
    /// (paper: 0.5).
    pub default_cond_p: f64,
    /// Iteration-count guess for loops whose trip count is unknown
    /// (generic `while` loops; "can be tuned according to the application").
    pub default_loop_iters: f64,
    /// Row-count guess for collections whose source is unknown.
    pub default_collection_iters: f64,
    /// `AF_Q`: default amortization factor for prefetches.
    pub default_af: f64,
    /// Per-table amortization-factor overrides.
    pub af_overrides: HashMap<String, f64>,
    /// Cost charged for a database update statement beyond the round trip.
    pub update_server_ns: f64,
}

impl Default for CostCatalog {
    fn default() -> Self {
        let prices = Prices::default();
        CostCatalog {
            cz_ns: prices.cz_ns,
            cy_ns: 30.0,
            server_row_ns: prices.server_row_ns,
            default_cond_p: 0.5,
            default_loop_iters: 1_000.0,
            default_collection_iters: 1_000.0,
            default_af: 1.0,
            af_overrides: HashMap::new(),
            update_server_ns: 1_000.0,
        }
    }
}

impl CostCatalog {
    /// Catalog with a given default amortization factor (the experiments
    /// evaluate AF = 1, AF = 50 and AF = ∞).
    pub fn with_af(af: f64) -> CostCatalog {
        CostCatalog {
            default_af: af,
            ..CostCatalog::default()
        }
    }

    /// The two prices the virtual clock runs on, as this catalog has them:
    /// what [`crate::Cobra::run`] and validated selection's measurements
    /// charge, so the estimate and the clock describe the same machine.
    pub fn prices(&self) -> Prices {
        Prices {
            cz_ns: self.cz_ns,
            server_row_ns: self.server_row_ns,
        }
    }

    /// Amortization factor for prefetching `table`.
    pub fn af_for(&self, table: &str) -> f64 {
        self.af_overrides
            .get(table)
            .copied()
            .unwrap_or(self.default_af)
            .max(1.0)
    }

    /// Parse a cost-catalog file.
    ///
    /// ```text
    /// # COBRA cost catalog
    /// cz_ns = 30
    /// default_af = 50
    /// af.customer = 100
    /// ```
    pub fn parse(text: &str) -> Result<CostCatalog, String> {
        let mut cat = CostCatalog::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {}: expected key = value", lineno + 1));
            };
            let key = key.trim();
            let value: f64 = value
                .trim()
                .parse()
                .map_err(|e| format!("line {}: bad number: {e}", lineno + 1))?;
            match key {
                "cz_ns" => cat.cz_ns = value,
                "cy_ns" => cat.cy_ns = value,
                "server_row_ns" => cat.server_row_ns = value,
                "default_cond_p" => cat.default_cond_p = value,
                "default_loop_iters" => cat.default_loop_iters = value,
                "default_collection_iters" => cat.default_collection_iters = value,
                "default_af" => cat.default_af = value,
                "update_server_ns" => cat.update_server_ns = value,
                _ => {
                    if let Some(table) = key.strip_prefix("af.") {
                        cat.af_overrides.insert(table.to_string(), value);
                    } else {
                        return Err(format!("line {}: unknown key {key:?}", lineno + 1));
                    }
                }
            }
        }
        Ok(cat)
    }

    /// Render as a cost-catalog file (inverse of [`CostCatalog::parse`]).
    pub fn to_file_string(&self) -> String {
        let mut s = String::from("# COBRA cost catalog\n");
        let _ = writeln!(s, "cz_ns = {}", self.cz_ns);
        let _ = writeln!(s, "cy_ns = {}", self.cy_ns);
        let _ = writeln!(s, "server_row_ns = {}", self.server_row_ns);
        let _ = writeln!(s, "default_cond_p = {}", self.default_cond_p);
        let _ = writeln!(s, "default_loop_iters = {}", self.default_loop_iters);
        let _ = writeln!(
            s,
            "default_collection_iters = {}",
            self.default_collection_iters
        );
        let _ = writeln!(s, "default_af = {}", self.default_af);
        let _ = writeln!(s, "update_server_ns = {}", self.update_server_ns);
        let mut tables: Vec<_> = self.af_overrides.iter().collect();
        tables.sort_by_key(|(t, _)| t.as_str());
        for (t, v) in tables {
            let _ = writeln!(s, "af.{t} = {v}");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = CostCatalog::default();
        assert_eq!(c.cz_ns, 30.0, "paper profiles C_Z at 30ns");
        assert_eq!(c.default_cond_p, 0.5);
        assert_eq!(c.default_af, 1.0);
    }

    #[test]
    fn parse_round_trips() {
        let mut c = CostCatalog::with_af(50.0);
        c.af_overrides.insert("customer".into(), 100.0);
        c.cz_ns = 42.0;
        let text = c.to_file_string();
        let parsed = CostCatalog::parse(&text).unwrap();
        assert_eq!(parsed, c);
    }

    #[test]
    fn parse_handles_comments_and_blank_lines() {
        let c = CostCatalog::parse("# header\n\ncz_ns = 10 # trailing comment\naf.orders = 7\n")
            .unwrap();
        assert_eq!(c.cz_ns, 10.0);
        assert_eq!(c.af_for("orders"), 7.0);
        assert_eq!(c.af_for("other"), 1.0);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(CostCatalog::parse("nonsense").is_err());
        assert!(CostCatalog::parse("cz_ns = abc").is_err());
        assert!(CostCatalog::parse("mystery_key = 1").is_err());
    }

    #[test]
    fn af_clamps_to_at_least_one() {
        let mut c = CostCatalog::default();
        c.af_overrides.insert("t".into(), 0.2);
        assert_eq!(c.af_for("t"), 1.0);
    }
}
