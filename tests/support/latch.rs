//! A worker held where a test wants it. Included by path from
//! `server_concurrency` and `hostile_frames`: admission pressure made of
//! "a search that takes a few milliseconds" is a race; a tenant function
//! that blocks until the test opens it is not.

use cobra::minidb::{DataType, FuncRegistry, Value};
use cobra::prelude::*;
use std::sync::{Arc, Condvar, Mutex};

/// What `hold()` blocks on.
#[derive(Default)]
pub struct Latch {
    /// (a call is parked inside, the test has opened it)
    state: Mutex<(bool, bool)>,
    changed: Condvar,
}

impl Latch {
    /// `base` plus `hold()`, which says it was entered and then returns
    /// only once [`Latch::open`] has been called.
    pub fn funcs(self: &Arc<Latch>, base: &FuncRegistry) -> Arc<FuncRegistry> {
        let latch = self.clone();
        let mut funcs = base.clone();
        funcs.register("hold", DataType::Int, move |_| {
            let mut state = latch.state.lock().unwrap();
            state.0 = true;
            latch.changed.notify_all();
            while !state.1 {
                state = latch.changed.wait(state).unwrap();
            }
            Ok(Value::Int(0))
        });
        Arc::new(funcs)
    }

    /// Block until a submission is executing `hold()` — and so holds its
    /// worker permit.
    pub fn wait_entered(&self) {
        let mut state = self.state.lock().unwrap();
        while !state.0 {
            state = self.changed.wait(state).unwrap();
        }
    }

    /// Let every present and future `hold()` return.
    pub fn open(&self) {
        self.state.lock().unwrap().1 = true;
        self.changed.notify_all();
    }
}

/// `occupy() { x = hold(); }`
pub fn holding_program() -> Program {
    let hold = Expr::Call("hold".into(), vec![]);
    let body = vec![Stmt::new(StmtKind::Let("x".into(), hold))];
    Program::single(Function::new("occupy", vec![], body))
}
