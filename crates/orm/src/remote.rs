//! The client's connection to the database across the simulated network.

use minidb::{DbResult, Executor, FuncRegistry, LogicalPlan, ResultSet, Value};
use netsim::{Clock, NetStats, NetworkProfile};

use std::collections::HashMap;
use std::sync::Arc;

/// What the virtual clock charges for the two things that are not the
/// network: one statement of the application and one row the server
/// touches. The defaults below are the only place either number is
/// written; a cost catalog starts from them and hands its own pair to
/// every run, so an estimate and the clock it is held against read one
/// price list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prices {
    /// `C_Z`: one executed statement, ns. The paper profiles it at 30 ns
    /// (§VIII).
    pub cz_ns: f64,
    /// One row-touch at the server, ns: a 1 M-row scan is ~0.2 s of server
    /// time, in line with the warm in-memory MySQL of the paper's testbed.
    pub server_row_ns: f64,
}

impl Default for Prices {
    fn default() -> Prices {
        Prices {
            cz_ns: 30.0,
            server_row_ns: 200.0,
        }
    }
}

impl Prices {
    /// What one statement puts on the clock. The clock counts whole
    /// nanoseconds and the interpreter adds this per statement, so this is
    /// the one place the catalog's `f64` becomes an integer: rounded to
    /// nearest, once, not per statement (a negative or NaN price is 0).
    pub fn statement_ns(&self) -> u64 {
        self.cz_ns.round() as u64
    }
}

/// A remote database connection.
///
/// Every call charges the shared [`Clock`] with the paper's query-cost
/// structure: one network round trip, server time to the first row, then
/// the longer of (result transfer) and (remaining server time) — transfer
/// overlaps result production, exactly as in the cost model of §VI.
pub struct RemoteDb {
    db: minidb::SharedDb,
    funcs: Arc<FuncRegistry>,
    net: NetworkProfile,
    clock: Arc<Clock>,
    stats: NetStats,
    prices: Prices,
    /// When set, every executed query records its observed cardinality
    /// and work into this store (the runtime half of the cardinality
    /// feedback loop; estimators opt in via `Estimator::with_feedback`).
    feedback: Option<Arc<minidb::FeedbackStore>>,
}

impl RemoteDb {
    /// Connect to `db` through `net`, charging a clock of its own at
    /// `prices`.
    pub fn new(
        db: minidb::SharedDb,
        funcs: Arc<FuncRegistry>,
        net: NetworkProfile,
        prices: Prices,
    ) -> RemoteDb {
        RemoteDb {
            db,
            funcs,
            net,
            clock: Arc::new(Clock::new()),
            stats: NetStats::new(),
            prices,
            feedback: None,
        }
    }

    /// Record every executed query's observed cardinality and work into
    /// `feedback` (keyed by plan fingerprint).
    pub fn with_feedback(mut self, feedback: Arc<minidb::FeedbackStore>) -> RemoteDb {
        self.feedback = Some(feedback);
        self
    }

    /// The underlying database handle.
    pub fn database(&self) -> &minidb::SharedDb {
        &self.db
    }

    /// The prices this connection charges; the interpreter running over it
    /// reads its statement price here.
    pub fn prices(&self) -> Prices {
        self.prices
    }

    /// The connection's virtual clock.
    pub fn clock(&self) -> &Arc<Clock> {
        &self.clock
    }

    /// Shared function registry (client and server semantics).
    pub fn funcs(&self) -> &Arc<FuncRegistry> {
        &self.funcs
    }

    /// Execute a read query, charging round trip + server + transfer time.
    /// The result is the one the engine produced, shared: rows are read out
    /// of it ([`minidb::RowRef`]), not copied here.
    pub fn query(
        &self,
        plan: &LogicalPlan,
        params: &HashMap<String, Value>,
    ) -> DbResult<Arc<ResultSet>> {
        let db = self.db.read().unwrap();
        let mut exec = Executor::new(&db, &self.funcs);
        if let Some(fb) = &self.feedback {
            exec = exec.with_feedback(fb);
        }
        let result = exec.run(plan, params)?;
        let first = result.work().first_row_ns(self.prices.server_row_ns);
        let total = result.work().total_ns(self.prices.server_row_ns);
        let transfer = self.net.transfer_ns(result.payload_bytes());
        let stream = transfer.max(total - first);
        self.clock
            .advance(self.net.round_trip_ns() + first + stream);
        self.stats.record_round_trip();
        self.stats.record_transfer(result.payload_bytes());
        Ok(Arc::new(result))
    }

    /// Execute a single-row update, charging one round trip plus the
    /// server-side lookup work.
    pub fn update(
        &self,
        table: &str,
        key_col: &str,
        key: &Value,
        set_col: &str,
        value: Value,
    ) -> DbResult<usize> {
        let mut db = self.db.write().unwrap();
        let t = db.table_mut(table)?;
        let key_idx = t.schema().resolve(key_col)?;
        let set_idx = t.schema().resolve(set_col)?;
        let changed = t.update_where_eq(key_idx, key, set_idx, value);
        let server = (changed.max(1) as f64 * self.prices.server_row_ns) as u64;
        self.clock.advance(self.net.round_trip_ns() + server);
        self.stats.record_round_trip();
        Ok(changed)
    }

    /// Number of queries + updates issued so far.
    pub fn round_trips(&self) -> u64 {
        self.stats.round_trips()
    }

    /// Total result bytes moved so far.
    pub fn bytes_transferred(&self) -> u64 {
        self.stats.bytes_transferred()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::{Column, DataType, Database, Schema};

    fn fixture() -> (minidb::SharedDb, Arc<FuncRegistry>) {
        let mut db = Database::new();
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::with_width("name", DataType::Str, 20),
        ]);
        let t = db.create_table("t", schema).unwrap();
        t.set_primary_key("id").unwrap();
        for i in 0..100i64 {
            t.insert(vec![Value::Int(i), Value::str(format!("row{i}"))])
                .unwrap();
        }
        t.analyze();
        (minidb::shared(db), Arc::new(FuncRegistry::with_builtins()))
    }

    #[test]
    fn query_charges_round_trip_and_transfer() {
        let (db, funcs) = fixture();
        let net = NetworkProfile::new("test", 8e6, 10.0); // 1 MB/s, 10 ms RTT
        let remote = RemoteDb::new(db, funcs, net, Prices::default());
        let plan = minidb::sql::parse("select * from t").unwrap();
        let r = remote.query(&plan, &HashMap::new()).unwrap();
        assert_eq!(r.len(), 100);
        // 100 rows × 28 B = 2800 B → 2.8 ms transfer; RTT 10 ms.
        let elapsed = remote.clock().now();
        assert!(elapsed >= 10_000_000 + 2_800_000, "elapsed={elapsed}");
        assert_eq!(remote.round_trips(), 1);
        assert_eq!(remote.bytes_transferred(), 2800);
    }

    #[test]
    fn each_query_is_a_round_trip() {
        let (db, funcs) = fixture();
        let net = NetworkProfile::new("test", 8e9, 5.0);
        let remote = RemoteDb::new(db, funcs, net, Prices::default());
        let plan = minidb::sql::parse("select * from t where id = :k").unwrap();
        for i in 0..7 {
            let mut params = HashMap::new();
            params.insert("k".to_string(), Value::Int(i));
            let r = remote.query(&plan, &params).unwrap();
            assert_eq!(r.len(), 1, "key {i}");
        }
        assert_eq!(remote.round_trips(), 7);
        assert!(
            remote.clock().now() >= 7 * 5_000_000,
            "N+1 round trips dominate"
        );
    }

    #[test]
    fn update_mutates_and_charges() {
        let (db, funcs) = fixture();
        let net = NetworkProfile::new("test", 8e9, 1.0);
        let remote = RemoteDb::new(db.clone(), funcs, net, Prices::default());
        let n = remote
            .update("t", "id", &Value::Int(5), "name", Value::str("changed"))
            .unwrap();
        assert_eq!(n, 1);
        assert!(remote.clock().now() >= 1_000_000);
        let dbb = db.read().unwrap();
        let row = &dbb.table("t").unwrap().rows()[5];
        assert_eq!(row[1], Value::str("changed"));
    }

    #[test]
    fn transfer_overlaps_server_production() {
        // With a huge bandwidth the stream term is dominated by server
        // time; with tiny bandwidth it is dominated by transfer.
        let (db, funcs) = fixture();
        let slow_server = Prices {
            server_row_ns: 1000.0,
            ..Prices::default()
        };
        let net = NetworkProfile::new("f", 8e12, 0.0);
        let fast = RemoteDb::new(db.clone(), funcs.clone(), net, slow_server);
        let plan = minidb::sql::parse("select * from t").unwrap();
        fast.query(&plan, &HashMap::new()).unwrap();
        let fast_time = fast.clock().now();
        assert!(fast_time >= 100_000, "server-bound: {fast_time}");

        let net = NetworkProfile::new("s", 8e3, 0.0);
        let slow = RemoteDb::new(db, funcs, net, slow_server);
        slow.query(&plan, &HashMap::new()).unwrap();
        // 2800 B at 1 kB/s = 2.8 s ≫ 0.1 ms server time.
        assert!(slow.clock().now() >= 2_800_000_000);
    }
}
