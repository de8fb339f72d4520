//! # geodb — object-oriented geographic DBMS substrate
//!
//! The storage and query foundation beneath the *Active Customization of
//! GIS User Interfaces* reproduction (Medeiros, Oliveira & Cilia, ICDE
//! 1997). The paper assumes "an (object-oriented) geographic database,
//! which is the expected underlying system"; this crate is that system:
//!
//! * an object-oriented **data model** — class schemas with single
//!   inheritance, tuple / reference / geometry / bitmap attributes, and
//!   method signatures ([`schema`], [`value`], [`instance`], [`catalog`]);
//! * planar **spatial types** and operations ([`geometry`]);
//! * **spatial indexes**: an R-tree and a uniform grid ([`index`]);
//! * **copy-on-write class partitions**, the one copy of the data that
//!   the mutable [`Database`] patches and every published snapshot
//!   shares (`partition`);
//! * a **page store**: slotted pages, heap files with overflow chains,
//!   and a buffer pool with LRU/clock eviction ([`storage`]), driven by
//!   the buffer experiment (C3);
//! * **query primitives** — `Get_Schema`, `Get_Class`, `Get_Value` plus
//!   predicate selection — and the [`query::DbEvent`] stream the active
//!   mechanism intercepts ([`query`], [`db`]);
//! * JSON **snapshots** ([`snapshot`]) and a deterministic telephone-network
//!   **workload generator** ([`gen`]);
//! * a **durable write path** — checksummed write-ahead log, group
//!   commit, checkpoints and crash recovery over the versioned store
//!   ([`wal`], [`store`]);
//! * **epoch replication** — delta shipping to follower stores, routed
//!   follower reads with bounded staleness, and WAL-tail failover
//!   ([`repl`]).
//!
//! ## Quick example
//!
//! ```
//! use geodb::gen::{phone_net_db, TelecomConfig};
//! use geodb::geometry::Rect;
//!
//! let (mut db, stats) = phone_net_db(&TelecomConfig::small()).unwrap();
//! assert!(stats.poles > 0);
//! // Browse the poles in a map viewport (uses the R-tree).
//! let visible = db
//!     .window_query("phone_net", "Pole", Rect::new(0.0, 0.0, 200.0, 200.0))
//!     .unwrap();
//! assert!(!visible.is_empty());
//! ```

pub mod catalog;
pub mod db;
pub mod epoch;
pub mod error;
pub mod gen;
pub mod geometry;
pub mod index;
pub mod instance;
mod partition;
pub mod query;
pub mod repl;
pub mod schema;
pub mod snapshot;
pub mod storage;
pub mod store;
pub mod value;
pub mod wal;
pub mod walcodec;

pub use catalog::Catalog;
pub use db::{Aggregate, Database, IndexKind, MethodFn, QueryStats, RefResolver};
pub use epoch::Epoch;
pub use error::{GeoDbError, Result, SnapshotCause};
pub use geometry::{Geometry, GeometryKind, Point, Polygon, Polyline, Rect};
pub use instance::{Instance, Oid};
pub use query::{CmpOp, DbEvent, DbEventKind, Predicate};
pub use repl::{PromotionReport, ReadRouter, ReadSource, ReplicaStatus, ReplicaStore, SyncOutcome};
pub use schema::{AttrDef, ClassDef, MethodDef, SchemaDef};
pub use store::{Committed, DbReader, DbSnapshot, DbStore};
pub use value::{AttrType, Value};
pub use wal::{RecoveryReport, WalConfig, WalStatus};
