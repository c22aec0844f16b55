//! Compute schedules: which output channels are processed together and in
//! which order the reduction (input-channel) dimension is visited.
//!
//! A [`ComputeSchedule`] is the interface between the READ optimizer and the
//! simulator: the optimizer decides the grouping and ordering, the simulator
//! executes it.  The default schedule reproduces the baseline accelerator
//! behaviour (consecutive column tiles, natural reduction order).

use std::str::FromStr;
use std::sync::Arc;

use crate::error::SimError;
use crate::matrix::validate_permutation;

/// A group of output channels processed simultaneously on the array columns,
/// together with the reduction order used for the whole group.
///
/// In the paper's terms a `ColumnGroup` is one cluster `T_i` with its
/// per-cluster input-channel sequence `S_i`.
///
/// The row order is shared, not owned: cloning a group copies a pointer,
/// every group of [`ComputeSchedule::baseline`] holds one identity order,
/// and [`ComputeSchedule::from_wire`] gives adjacent groups with equal
/// orders one copy.  Row indices are `u32`, half the bytes of a `usize`; a
/// reduction longer than `u32::MAX` rows is refused, never truncated
/// ([`ColumnGroup::new`], [`GemmProblem::check`](crate::GemmProblem::check)).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnGroup {
    /// Output-channel (column) indices of the weight matrix in this group.
    pub columns: Vec<usize>,
    /// Order in which the reduction rows are visited when computing every
    /// output of this group.  Must be a permutation of `0..reduction_len`.
    pub row_order: Arc<[u32]>,
}

impl ColumnGroup {
    /// Creates a group visiting the reduction rows in `row_order`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidSchedule`] if a row index exceeds
    /// `u32::MAX`.
    pub fn new(columns: Vec<usize>, row_order: &[usize]) -> Result<Self, SimError> {
        let row_order = row_order
            .iter()
            .map(|&r| {
                u32::try_from(r).map_err(|_| SimError::InvalidSchedule {
                    reason: format!("row index {r} exceeds u32::MAX"),
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(ColumnGroup { columns, row_order })
    }

    /// Creates a group with the natural (identity) reduction order.
    ///
    /// # Panics
    ///
    /// If `reduction_len` exceeds `u32::MAX`, a reduction no
    /// [`GemmProblem`](crate::GemmProblem) accepts.
    pub fn with_identity_order(columns: Vec<usize>, reduction_len: usize) -> Self {
        ColumnGroup {
            columns,
            row_order: identity_order(reduction_len),
        }
    }
}

/// The natural order `0..reduction_len`, refusing a reduction longer than
/// `u32::MAX` rows.
fn identity_order(reduction_len: usize) -> Arc<[u32]> {
    let len = u32::try_from(reduction_len).expect("a reduction of at most u32::MAX rows");
    (0..len).collect()
}

/// Full schedule for one GEMM / layer: a partition of the output channels
/// into groups, each with its own reduction order.
///
/// # Example
///
/// ```
/// use accel_sim::ComputeSchedule;
///
/// // Baseline schedule for a 64-channel layer with reduction length 128 on a
/// // 4-column array: 16 groups of 4 channels, natural order.
/// let schedule = ComputeSchedule::baseline(128, 64, 4);
/// assert_eq!(schedule.groups().len(), 16);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ComputeSchedule {
    groups: Vec<ColumnGroup>,
}

impl ComputeSchedule {
    /// Creates a schedule from explicit groups.
    pub fn new(groups: Vec<ColumnGroup>) -> Self {
        ComputeSchedule { groups }
    }

    /// The baseline schedule used by an unmodified accelerator: output
    /// channels are taken in consecutive tiles of `cols_per_group` and the
    /// reduction dimension is visited in natural order.  Every group shares
    /// one identity order.
    ///
    /// # Panics
    ///
    /// If `reduction_len` exceeds `u32::MAX`, a reduction no
    /// [`GemmProblem`](crate::GemmProblem) accepts.
    pub fn baseline(reduction_len: usize, num_channels: usize, cols_per_group: usize) -> Self {
        let cols_per_group = cols_per_group.max(1);
        let row_order = identity_order(reduction_len);
        let groups = (0..num_channels)
            .step_by(cols_per_group)
            .map(|start| ColumnGroup {
                columns: (start..(start + cols_per_group).min(num_channels)).collect(),
                row_order: Arc::clone(&row_order),
            })
            .collect();
        ComputeSchedule { groups }
    }

    /// Borrow the column groups.
    pub fn groups(&self) -> &[ColumnGroup] {
        &self.groups
    }

    /// Total number of output channels covered by the schedule.
    pub fn num_channels(&self) -> usize {
        self.groups.iter().map(|g| g.columns.len()).sum()
    }

    /// The output-channel order induced by the schedule (concatenation of the
    /// group column lists).  This is the order in which output channels are
    /// produced, which the next layer must account for (Section IV-D).
    pub fn output_channel_order(&self) -> Vec<usize> {
        self.groups
            .iter()
            .flat_map(|g| g.columns.iter().copied())
            .collect()
    }

    /// Deterministic single-line text encoding of the schedule, used to
    /// persist cached schedules in content-addressed artifact stores (the
    /// build environment has no serde).  Format:
    /// `groups=<cols>@<order>[;<cols>@<order>...]` where `<cols>` and
    /// `<order>` are comma-separated decimal indices — e.g. a two-channel
    /// group visiting rows `2,0,1` encodes as `0,1@2,0,1`.
    ///
    /// [`ComputeSchedule::from_wire`] is the exact inverse: encoding and
    /// decoding round-trips every schedule byte for byte.
    pub fn to_wire(&self) -> String {
        let mut out = String::from("groups=");
        for (gi, group) in self.groups.iter().enumerate() {
            if gi > 0 {
                out.push(';');
            }
            push_index_list(&mut out, group.columns.iter().copied());
            out.push('@');
            push_index_list(&mut out, group.row_order.iter().map(|&r| r as usize));
        }
        out
    }

    /// Decodes a [`ComputeSchedule::to_wire`] line.  Returns `None` on any
    /// malformed input, including a row index beyond `u32::MAX`;
    /// structural validity against a concrete problem is the caller's job
    /// ([`ComputeSchedule::validate`]).  A group whose row order equals the
    /// previous group's shares it, so a stored baseline decodes into one
    /// identity order as [`ComputeSchedule::baseline`] builds it.
    pub fn from_wire(line: &str) -> Option<ComputeSchedule> {
        let rest = line.strip_prefix("groups=")?;
        let mut groups: Vec<ColumnGroup> = Vec::new();
        if rest.is_empty() {
            return Some(ComputeSchedule { groups });
        }
        for part in rest.split(';') {
            let (cols, order) = part.split_once('@')?;
            let order: Vec<u32> = parse_index_list(order)?;
            let row_order = match groups.last() {
                Some(prev) if prev.row_order[..] == order[..] => Arc::clone(&prev.row_order),
                _ => order.into(),
            };
            groups.push(ColumnGroup {
                columns: parse_index_list(cols)?,
                row_order,
            });
        }
        Some(ComputeSchedule { groups })
    }

    /// Validates the schedule against a `reduction_len x num_channels`
    /// problem: every group's row order must be a permutation of the
    /// reduction indices, and the groups must partition the channel set.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidSchedule`] describing the first violation.
    pub fn validate(&self, reduction_len: usize, num_channels: usize) -> Result<(), SimError> {
        if self.groups.is_empty() {
            return Err(SimError::InvalidSchedule {
                reason: "schedule has no column groups".into(),
            });
        }
        let mut seen = vec![false; num_channels];
        for (gi, g) in self.groups.iter().enumerate() {
            if g.columns.is_empty() {
                return Err(SimError::InvalidSchedule {
                    reason: format!("group {gi} has no columns"),
                });
            }
            validate_permutation(g.row_order.iter().map(|&r| r as usize), reduction_len)?;
            for &c in &g.columns {
                if c >= num_channels {
                    return Err(SimError::InvalidSchedule {
                        reason: format!("group {gi} references channel {c} >= {num_channels}"),
                    });
                }
                if seen[c] {
                    return Err(SimError::InvalidSchedule {
                        reason: format!("channel {c} appears in more than one group"),
                    });
                }
                seen[c] = true;
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(SimError::InvalidSchedule {
                reason: format!("channel {missing} is not covered by any group"),
            });
        }
        Ok(())
    }
}

/// Appends `indices` as comma-separated decimals, writing each one's
/// digits straight into `out`.
fn push_index_list(out: &mut String, indices: impl Iterator<Item = usize>) {
    let mut digits = [0u8; 20];
    for (i, mut index) in indices.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (index % 10) as u8;
            index /= 10;
            if index == 0 {
                break;
            }
        }
        out.extend(digits[start..].iter().map(|&d| char::from(d)));
    }
}

fn parse_index_list<T: FromStr>(s: &str) -> Option<Vec<T>> {
    if s.is_empty() {
        return Some(Vec::new());
    }
    s.split(',').map(|t| t.parse().ok()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_encoding_round_trips_exactly() {
        let two_groups = ComputeSchedule::new(vec![
            ColumnGroup {
                columns: vec![10, 3],
                row_order: vec![11, 0, 10, 1, 9, 2, 8, 3, 7, 4, 6, 5].into(),
            },
            ColumnGroup {
                columns: vec![0, 12, 1],
                row_order: vec![u32::MAX, 100, 0].into(),
            },
        ]);
        let schedules = [
            ComputeSchedule::baseline(3, 5, 2),
            ComputeSchedule::new(vec![
                ColumnGroup {
                    columns: vec![4, 0],
                    row_order: vec![2, 0, 1].into(),
                },
                ColumnGroup {
                    columns: vec![1],
                    row_order: vec![0, 1, 2].into(),
                },
            ]),
            two_groups.clone(),
            ComputeSchedule::default(),
        ];
        for schedule in schedules {
            let wire = schedule.to_wire();
            assert_eq!(ComputeSchedule::from_wire(&wire), Some(schedule), "{wire}");
        }
        assert_eq!(
            ComputeSchedule::new(vec![ColumnGroup {
                columns: vec![4, 0],
                row_order: vec![2, 0, 1].into(),
            }])
            .to_wire(),
            "groups=4,0@2,0,1"
        );
        assert_eq!(
            two_groups.to_wire(),
            "groups=10,3@11,0,10,1,9,2,8,3,7,4,6,5;0,12,1@4294967295,100,0"
        );
        assert_eq!(ComputeSchedule::default().to_wire(), "groups=");
    }

    #[test]
    fn malformed_wire_schedules_are_rejected() {
        for bad in [
            "",
            "groups",
            "groups=0,1",          // no '@'
            "groups=0,x@0",        // non-numeric column
            "groups=0@1,zap",      // non-numeric row
            "groups=0@0;",         // empty trailing group
            "groups=0@4294967296", // row index beyond u32
            "schedule=groups=0",   // wrong prefix
        ] {
            assert!(
                ComputeSchedule::from_wire(bad).is_none(),
                "{bad:?} should not decode"
            );
        }
    }

    /// A baseline holds one identity order for all its groups, and so does
    /// the schedule decoded from its wire text.
    #[test]
    fn baseline_groups_share_one_order_through_the_wire() {
        let baseline = ComputeSchedule::baseline(300, 41, 4);
        let decoded = ComputeSchedule::from_wire(&baseline.to_wire()).unwrap();
        assert_eq!(decoded, baseline);
        for schedule in [&baseline, &decoded] {
            let first = &schedule.groups()[0].row_order;
            assert_eq!(schedule.groups().len(), 11);
            assert!(schedule
                .groups()
                .iter()
                .all(|g| Arc::ptr_eq(&g.row_order, first)));
        }
    }

    #[test]
    fn column_group_refuses_row_indices_beyond_u32() {
        let group = ColumnGroup::new(vec![0], &[1, 0]).unwrap();
        assert_eq!(group.row_order[..], [1, 0]);
        let too_far = u32::MAX as usize + 1;
        assert!(matches!(
            ColumnGroup::new(vec![0], &[0, too_far]),
            Err(SimError::InvalidSchedule { .. })
        ));
    }

    #[test]
    fn baseline_covers_all_channels() {
        let s = ComputeSchedule::baseline(10, 9, 4);
        assert_eq!(s.groups().len(), 3);
        assert_eq!(s.num_channels(), 9);
        assert!(s.validate(10, 9).is_ok());
        assert_eq!(s.output_channel_order(), (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn baseline_handles_zero_cols_per_group() {
        let s = ComputeSchedule::baseline(4, 3, 0);
        assert!(s.validate(4, 3).is_ok());
    }

    #[test]
    fn validate_rejects_missing_channel() {
        let s = ComputeSchedule::new(vec![ColumnGroup::with_identity_order(vec![0, 1], 4)]);
        assert!(s.validate(4, 3).is_err());
    }

    #[test]
    fn validate_rejects_duplicate_channel() {
        let s = ComputeSchedule::new(vec![
            ColumnGroup::with_identity_order(vec![0, 1], 4),
            ColumnGroup::with_identity_order(vec![1, 2], 4),
        ]);
        assert!(s.validate(4, 3).is_err());
    }

    #[test]
    fn validate_rejects_bad_row_order() {
        let s = ComputeSchedule::new(vec![ColumnGroup {
            columns: vec![0],
            row_order: vec![0, 0, 1].into(),
        }]);
        assert!(s.validate(3, 1).is_err());
    }

    #[test]
    fn validate_rejects_empty() {
        let s = ComputeSchedule::new(vec![]);
        assert!(s.validate(3, 1).is_err());
        let s = ComputeSchedule::new(vec![ColumnGroup {
            columns: vec![],
            row_order: vec![0, 1, 2].into(),
        }]);
        assert!(s.validate(3, 0).is_err());
    }

    #[test]
    fn output_channel_order_follows_groups() {
        let s = ComputeSchedule::new(vec![
            ColumnGroup::with_identity_order(vec![2, 0], 2),
            ColumnGroup::with_identity_order(vec![1], 2),
        ]);
        assert_eq!(s.output_channel_order(), vec![2, 0, 1]);
        assert!(s.validate(2, 3).is_ok());
    }
}
