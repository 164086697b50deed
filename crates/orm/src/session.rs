//! The ORM session: entity loading with a first-level cache.

use crate::mapping::{EntityMapping, MappingRegistry};
use crate::remote::RemoteDb;
use minidb::{DbError, DbResult, EqIndex, LogicalPlan, ResultSet, RowRef, ScalarExpr, Value};

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// An ORM session.
///
/// * `load_all(Entity)` fetches the entity's whole table (one query) and
///   primes the per-primary-key cache.
/// * `get(Entity, id)` returns the cached row or issues a point query —
///   association navigation goes through this, producing the N+1 pattern
///   on cache misses and no traffic on hits.
///
/// A loaded row is a [`RowRef`] into the result that fetched it: it carries
/// its schema, and the cache holds it without copying it.
pub struct Session {
    remote: Arc<RemoteDb>,
    mappings: Arc<MappingRegistry>,
    /// First-level cache: entity → primary key → row, the latest filed.
    l1: Mutex<HashMap<String, EqIndex<RowRef>>>,
}

impl Session {
    /// Open a session over a remote connection.
    pub fn new(remote: Arc<RemoteDb>, mappings: Arc<MappingRegistry>) -> Session {
        Session {
            remote,
            mappings,
            l1: Mutex::new(HashMap::new()),
        }
    }

    /// The remote connection.
    pub fn remote(&self) -> &Arc<RemoteDb> {
        &self.remote
    }

    /// The mapping registry.
    pub fn mappings(&self) -> &Arc<MappingRegistry> {
        &self.mappings
    }

    fn mapping(&self, entity: &str) -> DbResult<&EntityMapping> {
        self.mappings
            .entity(entity)
            .ok_or_else(|| DbError::Invalid(format!("unmapped entity {entity}")))
    }

    /// `loadAll(Entity)`: fetch the entire table, prime the L1 cache, and
    /// return the result.
    pub fn load_all(&self, entity: &str) -> DbResult<Arc<ResultSet>> {
        let m = self.mapping(entity)?;
        let plan = LogicalPlan::scan(&m.table);
        let result = self.remote.query(&plan, &HashMap::new())?;
        let id_idx = result.schema().resolve(&m.id_column)?;
        let mut cache = EqIndex::default();
        for row in RowRef::all(&result) {
            cache.insert(&row.value(id_idx), row);
        }
        self.l1.lock().unwrap().insert(entity.to_string(), cache);
        Ok(result)
    }

    /// `get(Entity, id)`: L1-cached point lookup.
    ///
    /// A miss issues `select * from table where id = :id` (one round trip);
    /// a hit is free — Hibernate's first-level cache behaviour.
    pub fn get(&self, entity: &str, id: &Value) -> DbResult<Option<RowRef>> {
        let cached = |l1: &HashMap<String, EqIndex<RowRef>>| {
            l1.get(entity).and_then(|rows| rows.get(id).last().cloned())
        };
        if let Some(row) = cached(&self.l1.lock().unwrap()) {
            return Ok(Some(row));
        }
        let m = self.mapping(entity)?;
        let plan = LogicalPlan::scan(&m.table).select(ScalarExpr::eq(
            ScalarExpr::col(&m.id_column),
            ScalarExpr::param("id"),
        ));
        let params = HashMap::from([("id".to_string(), id.clone())]);
        let result = self.remote.query(&plan, &params)?;
        let Some(row) = RowRef::all(&result).next() else {
            return Ok(None);
        };
        let mut l1 = self.l1.lock().unwrap();
        l1.entry(entity.to_string())
            .or_default()
            .insert(id, row.clone());
        Ok(Some(row))
    }

    /// Navigate a many-to-one association from `row` of `entity` through
    /// `field`: reads the FK column and `get`s the target entity. Returns
    /// the target entity's name with the row.
    pub fn navigate(
        &self,
        entity: &str,
        field: &str,
        row: &RowRef,
    ) -> DbResult<Option<(&str, RowRef)>> {
        let assoc = self.mapping(entity)?.association(field).ok_or_else(|| {
            DbError::Invalid(format!("{entity}.{field} is not a mapped association"))
        })?;
        let fk = row.value(row.schema().resolve(&assoc.fk_column)?);
        if fk.is_null() {
            return Ok(None);
        }
        let target = assoc.target_entity.as_str();
        Ok(self.get(target, &fk)?.map(|r| (target, r)))
    }

    /// Number of rows currently in the first-level cache.
    pub fn l1_size(&self) -> usize {
        let l1 = self.l1.lock().unwrap();
        l1.values().map(|rows| rows.entries().count()).sum()
    }

    /// Drop all cached rows (end of transaction).
    pub fn clear(&self) {
        self.l1.lock().unwrap().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::{Column, DataType, Database, FuncRegistry, Schema};
    use netsim::NetworkProfile;

    fn fixture() -> Session {
        let mut db = Database::new();
        let orders = Schema::new(vec![
            Column::new("o_id", DataType::Int),
            Column::new("o_customer_sk", DataType::Int),
        ]);
        let t = db.create_table("orders", orders).unwrap();
        t.set_primary_key("o_id").unwrap();
        for i in 0..20i64 {
            t.insert(vec![Value::Int(i), Value::Int(i % 5)]).unwrap();
        }
        let customer = Schema::new(vec![
            Column::new("c_customer_sk", DataType::Int),
            Column::new("c_birth_year", DataType::Int),
        ]);
        let t = db.create_table("customer", customer).unwrap();
        t.set_primary_key("c_customer_sk").unwrap();
        for i in 0..5i64 {
            t.insert(vec![Value::Int(i), Value::Int(1960 + i)]).unwrap();
        }
        db.analyze_all();

        let remote = Arc::new(RemoteDb::new(
            minidb::shared(db),
            Arc::new(FuncRegistry::with_builtins()),
            NetworkProfile::new("test", 8e9, 1.0),
            crate::Prices::default(),
        ));
        let mut reg = MappingRegistry::new();
        reg.register(EntityMapping::new("Order", "orders", "o_id").many_to_one(
            "customer",
            "Customer",
            "o_customer_sk",
        ));
        reg.register(EntityMapping::new("Customer", "customer", "c_customer_sk"));
        Session::new(remote, Arc::new(reg))
    }

    #[test]
    fn load_all_is_one_query_and_primes_cache() {
        let s = fixture();
        let orders = s.load_all("Order").unwrap();
        assert_eq!(orders.len(), 20);
        assert_eq!(orders.schema().resolve("o_customer_sk").unwrap(), 1);
        assert_eq!(s.remote().round_trips(), 1);
        assert_eq!(s.l1_size(), 20);
        // get() after load_all is free.
        s.get("Order", &Value::Int(7)).unwrap().unwrap();
        assert_eq!(s.remote().round_trips(), 1);
    }

    #[test]
    fn get_misses_issue_point_queries_and_cache() {
        let s = fixture();
        let r = s.get("Customer", &Value::Int(3)).unwrap().unwrap();
        assert_eq!(r.value(1), Value::Int(1963));
        assert_eq!(s.remote().round_trips(), 1);
        // Second access: cache hit, no new round trip.
        s.get("Customer", &Value::Int(3)).unwrap().unwrap();
        assert_eq!(s.remote().round_trips(), 1);
    }

    #[test]
    fn navigation_produces_n_plus_one_then_saturates() {
        let s = fixture();
        let orders = s.load_all("Order").unwrap();
        let mut trips = Vec::new();
        for o in RowRef::all(&orders) {
            let (target, customer) = s.navigate("Order", "customer", &o).unwrap().unwrap();
            assert_eq!(target, "Customer");
            assert_eq!(customer.value(0), o.value(1));
            trips.push(s.remote().round_trips());
        }
        // 1 (load_all) + 5 distinct customers; later navigations hit cache.
        assert_eq!(*trips.last().unwrap(), 6);
    }

    #[test]
    fn missing_row_returns_none_without_caching() {
        let s = fixture();
        assert!(s.get("Customer", &Value::Int(999)).unwrap().is_none());
        // A retry queries again (absent rows are not negatively cached).
        assert!(s.get("Customer", &Value::Int(999)).unwrap().is_none());
        assert_eq!(s.remote().round_trips(), 2);
    }

    #[test]
    fn navigation_on_unmapped_field_errors() {
        let s = fixture();
        let orders = s.load_all("Order").unwrap();
        let first = RowRef::all(&orders).next().unwrap();
        assert!(s.navigate("Order", "warehouse", &first).is_err());
    }

    #[test]
    fn clear_resets_cache() {
        let s = fixture();
        s.load_all("Customer").unwrap();
        assert_eq!(s.l1_size(), 5);
        s.clear();
        assert_eq!(s.l1_size(), 0);
        // Next get() queries again.
        s.get("Customer", &Value::Int(0)).unwrap();
        assert_eq!(s.remote().round_trips(), 2);
    }

    #[test]
    fn unmapped_entity_errors() {
        let s = fixture();
        assert!(s.load_all("Ghost").is_err());
    }
}
