//! The schema catalog (the `sqlite_master` analogue).
//!
//! Catalog rows live in a table tree rooted at page 2, created when the
//! database is initialised. Each row is a record
//! `[kind, name, table, root_page, spec]` where `spec` serialises the
//! column definitions (tables) or indexed columns (indexes).

use std::collections::HashMap;

use crate::btree::{self, Cursor};
use crate::pager::{PageId, Pager};
use crate::record::{decode_record, encode_record};
use crate::sql::{Affinity, ColumnDef};
use crate::value::SqlValue;
use crate::{DbError, DbResult};

/// The fixed root page of the catalog tree.
pub const CATALOG_ROOT: PageId = 2;

/// A table column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Name (stored lowercase; lookups are case-insensitive).
    pub name: String,
    /// Declared affinity.
    pub affinity: Affinity,
}

/// A table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Name.
    pub name: String,
    /// Root page of the data tree.
    pub root: PageId,
    /// Columns in declaration order.
    pub columns: Vec<Column>,
    /// Index of the INTEGER PRIMARY KEY column (rowid alias), if any.
    pub rowid_alias: Option<usize>,
}

impl Table {
    /// Position of a column by (case-insensitive) name.
    #[must_use]
    pub fn column_index(&self, name: &str) -> Option<usize> {
        // `c.name == name.to_ascii_lowercase()`, without the copy.
        self.columns.iter().position(|c| {
            c.name.len() == name.len()
                && c.name.bytes().zip(name.bytes()).all(|(s, n)| s == n.to_ascii_lowercase())
        })
    }
}

/// A secondary index.
#[derive(Debug, Clone, PartialEq)]
pub struct Index {
    /// Name.
    pub name: String,
    /// Indexed table.
    pub table: String,
    /// Indexed column positions.
    pub columns: Vec<usize>,
    /// UNIQUE constraint.
    pub unique: bool,
    /// Root page of the index tree.
    pub root: PageId,
}

/// The in-memory schema cache.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schema {
    /// Tables by lowercase name.
    pub tables: HashMap<String, Table>,
    /// Indexes by lowercase name.
    pub indexes: HashMap<String, Index>,
}

impl Schema {
    /// Look up a table.
    pub fn table(&self, name: &str) -> DbResult<&Table> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| DbError::Schema(format!("no such table: {name}")))
    }

    /// All indexes on a table.
    #[must_use]
    pub fn indexes_of(&self, table: &str) -> Vec<&Index> {
        let lower = table.to_ascii_lowercase();
        let mut v: Vec<&Index> = self.indexes.values().filter(|i| i.table == lower).collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }
}

fn affinity_code(a: Affinity) -> i64 {
    match a {
        Affinity::Integer => 0,
        Affinity::Real => 1,
        Affinity::Text => 2,
        Affinity::Blob => 3,
    }
}

fn affinity_from(code: i64) -> Affinity {
    match code {
        0 => Affinity::Integer,
        1 => Affinity::Real,
        2 => Affinity::Text,
        _ => Affinity::Blob,
    }
}

/// Initialise the catalog tree in a fresh database. Must allocate page 2.
pub fn init_catalog(pager: &mut Pager) -> DbResult<()> {
    let root = btree::create_table_tree(pager)?;
    if root != CATALOG_ROOT {
        return Err(DbError::Storage(format!(
            "catalog root landed on page {root}, expected {CATALOG_ROOT}"
        )));
    }
    Ok(())
}

/// Serialise a table's column spec.
fn table_spec(columns: &[ColumnDef]) -> String {
    columns
        .iter()
        .map(|c| {
            format!(
                "{}:{}:{}",
                c.name.to_ascii_lowercase(),
                affinity_code(c.affinity),
                u8::from(c.primary_key)
            )
        })
        .collect::<Vec<_>>()
        .join(",")
}

fn parse_table_spec(spec: &str) -> DbResult<(Vec<Column>, Option<usize>)> {
    let mut columns = Vec::new();
    let mut rowid_alias = None;
    if spec.is_empty() {
        return Ok((columns, rowid_alias));
    }
    for (i, part) in spec.split(',').enumerate() {
        let mut fields = part.split(':');
        let name = fields
            .next()
            .ok_or_else(|| DbError::Storage("bad table spec".into()))?
            .to_string();
        let aff: i64 = fields
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| DbError::Storage("bad table spec affinity".into()))?;
        let pk: u8 = fields
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| DbError::Storage("bad table spec pk".into()))?;
        if pk == 1 && affinity_from(aff) == Affinity::Integer && rowid_alias.is_none() {
            rowid_alias = Some(i);
        }
        columns.push(Column {
            name,
            affinity: affinity_from(aff),
        });
    }
    Ok((columns, rowid_alias))
}

fn index_spec(columns: &[usize]) -> String {
    columns
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

fn parse_index_spec(spec: &str) -> DbResult<Vec<usize>> {
    if spec.is_empty() {
        return Ok(Vec::new());
    }
    spec.split(',')
        .map(|s| {
            s.parse()
                .map_err(|_| DbError::Storage("bad index spec".into()))
        })
        .collect()
}

fn next_catalog_rowid(pager: &mut Pager) -> DbResult<i64> {
    Ok(btree::table_max_rowid(pager, CATALOG_ROOT)?.unwrap_or(0) + 1)
}

/// Persist a new table in the catalog.
pub fn persist_table(pager: &mut Pager, table: &Table, columns: &[ColumnDef]) -> DbResult<()> {
    let rec = encode_record(&[
        SqlValue::Text("table".into()),
        SqlValue::Text(table.name.clone()),
        SqlValue::Text(table.name.clone()),
        SqlValue::Int(i64::from(table.root)),
        SqlValue::Text(table_spec(columns)),
    ]);
    let rowid = next_catalog_rowid(pager)?;
    btree::table_insert(pager, CATALOG_ROOT, rowid, &rec)
}

/// Persist a new index in the catalog.
pub fn persist_index(pager: &mut Pager, index: &Index) -> DbResult<()> {
    let rec = encode_record(&[
        SqlValue::Text(format!("index:{}", u8::from(index.unique))),
        SqlValue::Text(index.name.clone()),
        SqlValue::Text(index.table.clone()),
        SqlValue::Int(i64::from(index.root)),
        SqlValue::Text(index_spec(&index.columns)),
    ]);
    let rowid = next_catalog_rowid(pager)?;
    btree::table_insert(pager, CATALOG_ROOT, rowid, &rec)
}

/// Remove a catalog entry by object name.
pub fn unpersist(pager: &mut Pager, name: &str) -> DbResult<()> {
    let mut cursor = Cursor::first(pager, CATALOG_ROOT)?;
    let mut target = None;
    while cursor.valid() {
        let (rowid, rec) = cursor.table_entry(pager)?;
        let vals = decode_record(&rec)?;
        if let Some(SqlValue::Text(n)) = vals.get(1) {
            if n.eq_ignore_ascii_case(name) {
                target = Some(rowid);
                break;
            }
        }
        cursor.next(pager)?;
    }
    match target {
        Some(rowid) => {
            btree::table_delete(pager, CATALOG_ROOT, rowid)?;
            Ok(())
        }
        None => Err(DbError::Schema(format!("no such object: {name}"))),
    }
}

/// Load the whole schema from the catalog.
pub fn load_schema(pager: &mut Pager) -> DbResult<Schema> {
    let mut schema = Schema::default();
    let mut cursor = Cursor::first(pager, CATALOG_ROOT)?;
    while cursor.valid() {
        let (_, rec) = cursor.table_entry(pager)?;
        let vals = decode_record(&rec)?;
        let kind = match vals.first() {
            Some(SqlValue::Text(k)) => k.clone(),
            _ => return Err(DbError::Storage("corrupt catalog row".into())),
        };
        let name = match vals.get(1) {
            Some(SqlValue::Text(n)) => n.to_ascii_lowercase(),
            _ => return Err(DbError::Storage("corrupt catalog name".into())),
        };
        let tbl = match vals.get(2) {
            Some(SqlValue::Text(t)) => t.to_ascii_lowercase(),
            _ => return Err(DbError::Storage("corrupt catalog table".into())),
        };
        let root = match vals.get(3) {
            Some(SqlValue::Int(r)) => *r as PageId,
            _ => return Err(DbError::Storage("corrupt catalog root".into())),
        };
        let spec = match vals.get(4) {
            Some(SqlValue::Text(s)) => s.clone(),
            _ => return Err(DbError::Storage("corrupt catalog spec".into())),
        };
        if kind == "table" {
            let (columns, rowid_alias) = parse_table_spec(&spec)?;
            schema.tables.insert(
                name.clone(),
                Table {
                    name,
                    root,
                    columns,
                    rowid_alias,
                },
            );
        } else if let Some(uniq) = kind.strip_prefix("index:") {
            schema.indexes.insert(
                name.clone(),
                Index {
                    name,
                    table: tbl,
                    columns: parse_index_spec(&spec)?,
                    unique: uniq == "1",
                    root,
                },
            );
        } else {
            return Err(DbError::Storage(format!("unknown catalog kind {kind:?}")));
        }
        cursor.next(pager)?;
    }
    Ok(schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;

    fn defs() -> Vec<ColumnDef> {
        vec![
            ColumnDef {
                name: "id".into(),
                affinity: Affinity::Integer,
                primary_key: true,
            },
            ColumnDef {
                name: "Payload".into(),
                affinity: Affinity::Blob,
                primary_key: false,
            },
        ]
    }

    #[test]
    fn persist_and_load_roundtrip() {
        let mut p = Pager::open_file(Box::new(MemVfs::new()), "schema.db").unwrap();
        p.begin().unwrap();
        init_catalog(&mut p).unwrap();
        let data_root = btree::create_table_tree(&mut p).unwrap();
        let t = Table {
            name: "items".into(),
            root: data_root,
            columns: vec![
                Column {
                    name: "id".into(),
                    affinity: Affinity::Integer,
                },
                Column {
                    name: "payload".into(),
                    affinity: Affinity::Blob,
                },
            ],
            rowid_alias: Some(0),
        };
        persist_table(&mut p, &t, &defs()).unwrap();
        let idx_root = btree::create_index_tree(&mut p).unwrap();
        let idx = Index {
            name: "items_by_payload".into(),
            table: "items".into(),
            columns: vec![1],
            unique: false,
            root: idx_root,
        };
        persist_index(&mut p, &idx).unwrap();
        p.commit().unwrap();

        let schema = load_schema(&mut p).unwrap();
        assert_eq!(schema.tables.len(), 1);
        let lt = schema.table("ITEMS").unwrap();
        assert_eq!(lt.root, data_root);
        assert_eq!(lt.rowid_alias, Some(0));
        assert_eq!(lt.column_index("PAYLOAD"), Some(1));
        assert_eq!(schema.indexes.len(), 1);
        let li = &schema.indexes["items_by_payload"];
        assert_eq!(li.columns, vec![1]);
        assert!(!li.unique);
        assert_eq!(schema.indexes_of("items").len(), 1);
    }

    #[test]
    fn unpersist_removes() {
        let mut p = Pager::open_file(Box::new(MemVfs::new()), "schema.db").unwrap();
        p.begin().unwrap();
        init_catalog(&mut p).unwrap();
        let data_root = btree::create_table_tree(&mut p).unwrap();
        let t = Table {
            name: "t".into(),
            root: data_root,
            columns: vec![],
            rowid_alias: None,
        };
        persist_table(&mut p, &t, &[]).unwrap();
        unpersist(&mut p, "t").unwrap();
        assert!(unpersist(&mut p, "t").is_err());
        let schema = load_schema(&mut p).unwrap();
        assert!(schema.tables.is_empty());
        p.commit().unwrap();
    }
}
