//! Schema evolution primitives (paper Figure 1).
//!
//! Each primitive takes zero or one relation of the current schema as input
//! and produces zero or more new relations plus the mapping constraints that
//! link the output relations to the input relation (or express key/inclusion
//! constraints on the outputs). Primitives with forward (`f`) and backward
//! (`b`) variants emit only the constraints defining the outputs in terms of
//! the inputs (respectively the inputs in terms of the outputs); the plain
//! variant emits both.
//!
//! The paper presents the primitives in the named perspective; this
//! implementation uses the index-based (unnamed) perspective of §2, keeping
//! declared keys in the leading columns to simplify vertical partitioning.

use std::fmt;

use mapcomp_algebra::{Constraint, Expr, Pred, RelInfo, Value};
use rand::Rng;

/// The schema evolution primitives of Figure 1 (including forward/backward
/// variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PrimitiveKind {
    /// Add relation.
    AddRelation,
    /// Drop relation.
    DropRelation,
    /// Add attribute.
    AddAttribute,
    /// Drop attribute.
    DropAttribute,
    /// Add default, forward variant (`Df`).
    AddDefaultForward,
    /// Add default, backward variant (`Db`).
    AddDefaultBackward,
    /// Add default, both directions (`D`).
    AddDefault,
    /// Horizontal partitioning, forward (`Hf`).
    HorizontalForward,
    /// Horizontal partitioning, backward (`Hb`).
    HorizontalBackward,
    /// Horizontal partitioning, both (`H`).
    Horizontal,
    /// Vertical partitioning, forward (`Vf`).
    VerticalForward,
    /// Vertical partitioning, backward (`Vb`).
    VerticalBackward,
    /// Vertical partitioning, both (`V`).
    Vertical,
    /// Normalization, forward (`Nf`).
    NormalizeForward,
    /// Normalization, backward (`Nb`).
    NormalizeBackward,
    /// Normalization, both (`N`).
    Normalize,
    /// Subset (`Sub`): open-world copy `R ⊆ S`.
    Subset,
    /// Superset (`Sup`): open-world copy `R ⊇ S`.
    Superset,
}

impl PrimitiveKind {
    /// All primitive variants, in the order of the paper's Figure 2 x-axis
    /// (with `AR` first, which Figure 2 omits because it eliminates nothing).
    pub const ALL: [PrimitiveKind; 18] = [
        PrimitiveKind::AddRelation,
        PrimitiveKind::DropRelation,
        PrimitiveKind::AddAttribute,
        PrimitiveKind::DropAttribute,
        PrimitiveKind::AddDefaultForward,
        PrimitiveKind::AddDefaultBackward,
        PrimitiveKind::AddDefault,
        PrimitiveKind::HorizontalForward,
        PrimitiveKind::HorizontalBackward,
        PrimitiveKind::Horizontal,
        PrimitiveKind::VerticalForward,
        PrimitiveKind::VerticalBackward,
        PrimitiveKind::Vertical,
        PrimitiveKind::NormalizeForward,
        PrimitiveKind::NormalizeBackward,
        PrimitiveKind::Normalize,
        PrimitiveKind::Subset,
        PrimitiveKind::Superset,
    ];

    /// Short label used on the figures' x-axes.
    pub fn label(self) -> &'static str {
        match self {
            PrimitiveKind::AddRelation => "AR",
            PrimitiveKind::DropRelation => "DR",
            PrimitiveKind::AddAttribute => "AA",
            PrimitiveKind::DropAttribute => "DA",
            PrimitiveKind::AddDefaultForward => "Df",
            PrimitiveKind::AddDefaultBackward => "Db",
            PrimitiveKind::AddDefault => "D",
            PrimitiveKind::HorizontalForward => "Hf",
            PrimitiveKind::HorizontalBackward => "Hb",
            PrimitiveKind::Horizontal => "H",
            PrimitiveKind::VerticalForward => "Vf",
            PrimitiveKind::VerticalBackward => "Vb",
            PrimitiveKind::Vertical => "V",
            PrimitiveKind::NormalizeForward => "Nf",
            PrimitiveKind::NormalizeBackward => "Nb",
            PrimitiveKind::Normalize => "N",
            PrimitiveKind::Subset => "SUB",
            PrimitiveKind::Superset => "SUP",
        }
    }

    /// Does the primitive consume (and therefore require eliminating) an
    /// existing relation?
    pub fn consumes_input(self) -> bool {
        !matches!(self, PrimitiveKind::AddRelation)
    }

    /// Does the primitive require its input relation to carry a key? Only the
    /// vertical-partitioning variants do (paper §4.1).
    pub fn requires_key(self) -> bool {
        matches!(
            self,
            PrimitiveKind::VerticalForward
                | PrimitiveKind::VerticalBackward
                | PrimitiveKind::Vertical
        )
    }

    /// Minimum arity of the input relation (zero when no input is needed).
    pub fn min_input_arity(self) -> usize {
        match self {
            PrimitiveKind::AddRelation => 0,
            PrimitiveKind::DropRelation
            | PrimitiveKind::AddAttribute
            | PrimitiveKind::AddDefaultForward
            | PrimitiveKind::AddDefaultBackward
            | PrimitiveKind::AddDefault
            | PrimitiveKind::HorizontalForward
            | PrimitiveKind::HorizontalBackward
            | PrimitiveKind::Horizontal
            | PrimitiveKind::Subset
            | PrimitiveKind::Superset => 1,
            PrimitiveKind::DropAttribute => 2,
            PrimitiveKind::VerticalForward
            | PrimitiveKind::VerticalBackward
            | PrimitiveKind::Vertical
            | PrimitiveKind::NormalizeForward
            | PrimitiveKind::NormalizeBackward
            | PrimitiveKind::Normalize => 3,
        }
    }
}

impl fmt::Display for PrimitiveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Options controlling how primitives generate relations and constants.
#[derive(Debug, Clone)]
pub struct PrimitiveOptions {
    /// Minimum arity of newly created relations (paper: 2).
    pub min_arity: usize,
    /// Maximum arity of newly created relations (paper: 10).
    pub max_arity: usize,
    /// Whether relations may carry keys.
    pub keys_enabled: bool,
    /// Minimum key size (paper: 1).
    pub min_key: usize,
    /// Maximum key size (paper: 3).
    pub max_key: usize,
    /// Pool of constants used by the default-value and horizontal-partition
    /// primitives (paper: 10 constants).
    pub constant_pool: Vec<Value>,
}

impl Default for PrimitiveOptions {
    fn default() -> Self {
        PrimitiveOptions {
            min_arity: 2,
            max_arity: 10,
            keys_enabled: false,
            min_key: 1,
            max_key: 3,
            constant_pool: (0..10).map(Value::Int).collect(),
        }
    }
}

impl PrimitiveOptions {
    /// The paper's `keys` configuration.
    pub fn with_keys() -> Self {
        PrimitiveOptions { keys_enabled: true, ..PrimitiveOptions::default() }
    }
}

/// Result of applying one primitive.
#[derive(Debug, Clone)]
pub struct EditOutcome {
    /// Which primitive was applied.
    pub kind: PrimitiveKind,
    /// Input relation consumed (to be eliminated by the next composition).
    pub consumed: Option<String>,
    /// Newly created relations.
    pub created: Vec<(String, RelInfo)>,
    /// Mapping constraints produced by the edit.
    pub constraints: Vec<Constraint>,
}

/// Generates fresh relation names for the simulator.
#[derive(Debug, Default, Clone)]
pub struct NameSource {
    prefix: String,
    counter: usize,
}

impl NameSource {
    /// Create a name source producing names `R1`, `R2`, ...
    pub fn new() -> Self {
        NameSource { prefix: "R".to_string(), counter: 0 }
    }

    /// Create a name source with a custom prefix; used to keep the two
    /// branches of a reconciliation scenario from colliding.
    pub fn with_prefix(prefix: impl Into<String>) -> Self {
        NameSource { prefix: prefix.into(), counter: 0 }
    }

    /// Next fresh relation name.
    pub fn fresh(&mut self) -> String {
        self.counter += 1;
        format!("{}{}", self.prefix, self.counter)
    }
}

/// Create a random relation signature entry.
pub fn random_relation<R: Rng>(
    options: &PrimitiveOptions,
    names: &mut NameSource,
    rng: &mut R,
) -> (String, RelInfo) {
    let arity = rng.gen_range(options.min_arity..=options.max_arity);
    let info = if options.keys_enabled && rng.gen_bool(0.7) {
        let key_size = rng.gen_range(options.min_key..=options.max_key.min(arity));
        RelInfo::with_key(arity, (0..key_size).collect())
    } else {
        RelInfo::new(arity)
    };
    (names.fresh(), info)
}

/// Apply a primitive to the chosen input relation.
///
/// `input` is `None` only for [`PrimitiveKind::AddRelation`]. The caller is
/// responsible for choosing an input relation satisfying
/// [`PrimitiveKind::min_input_arity`] and [`PrimitiveKind::requires_key`].
pub fn apply_primitive<R: Rng>(
    kind: PrimitiveKind,
    input: Option<(&str, &RelInfo)>,
    options: &PrimitiveOptions,
    names: &mut NameSource,
    rng: &mut R,
) -> EditOutcome {
    match kind {
        PrimitiveKind::AddRelation => {
            let created = random_relation(options, names, rng);
            EditOutcome { kind, consumed: None, created: vec![created], constraints: vec![] }
        }
        PrimitiveKind::DropRelation => {
            let (name, _) = input.expect("DropRelation requires an input relation");
            EditOutcome {
                kind,
                consumed: Some(name.to_string()),
                created: vec![],
                constraints: vec![],
            }
        }
        PrimitiveKind::AddAttribute => {
            let (name, info) = input.expect("AddAttribute requires an input relation");
            let new_name = names.fresh();
            let new_info = RelInfo { arity: info.arity + 1, key: info.key.clone() };
            // R = π_A(S): the original columns are the leading columns of S.
            let constraint = Constraint::equality(
                Expr::rel(name),
                Expr::rel(new_name.clone()).project((0..info.arity).collect()),
            );
            EditOutcome {
                kind,
                consumed: Some(name.to_string()),
                created: vec![(new_name, new_info)],
                constraints: vec![constraint],
            }
        }
        PrimitiveKind::DropAttribute => {
            let (name, info) = input.expect("DropAttribute requires an input relation");
            // Never drop a key column so the key survives in the output,
            // except when every column is part of the key.
            let first_droppable = info.key.as_ref().map_or(0, std::vec::Vec::len);
            let dropped = if first_droppable >= info.arity {
                info.arity - 1
            } else {
                rng.gen_range(first_droppable..info.arity)
            };
            let kept: Vec<usize> = (0..info.arity).filter(|&c| c != dropped).collect();
            let new_key = info
                .key
                .as_ref()
                .map(|key| key.iter().copied().filter(|&k| k != dropped).collect::<Vec<_>>())
                .filter(|key| !key.is_empty());
            let new_name = names.fresh();
            let new_info = RelInfo { arity: info.arity - 1, key: new_key };
            // π_{A−{C}}(R) = S.
            let constraint =
                Constraint::equality(Expr::rel(name).project(kept), Expr::rel(new_name.clone()));
            EditOutcome {
                kind,
                consumed: Some(name.to_string()),
                created: vec![(new_name, new_info)],
                constraints: vec![constraint],
            }
        }
        PrimitiveKind::AddDefaultForward
        | PrimitiveKind::AddDefaultBackward
        | PrimitiveKind::AddDefault => {
            let (name, info) = input.expect("AddDefault requires an input relation");
            let constant = pick_constant(options, rng);
            let new_name = names.fresh();
            let new_info = RelInfo { arity: info.arity + 1, key: info.key.clone() };
            // Forward: R × {c} = S, with {c} encoded as σ_{#0=c}(D).
            let forward = Constraint::equality(
                Expr::rel(name)
                    .product(Expr::domain(1).select(Pred::eq_const(0, constant.clone()))),
                Expr::rel(new_name.clone()),
            );
            // Backward: R = π_A(σ_{C=c}(S)).
            let backward = Constraint::equality(
                Expr::rel(name),
                Expr::rel(new_name.clone())
                    .select(Pred::eq_const(info.arity, constant))
                    .project((0..info.arity).collect()),
            );
            let constraints = match kind {
                PrimitiveKind::AddDefaultForward => vec![forward],
                PrimitiveKind::AddDefaultBackward => vec![backward],
                _ => vec![forward, backward],
            };
            EditOutcome {
                kind,
                consumed: Some(name.to_string()),
                created: vec![(new_name, new_info)],
                constraints,
            }
        }
        PrimitiveKind::HorizontalForward
        | PrimitiveKind::HorizontalBackward
        | PrimitiveKind::Horizontal => {
            let (name, info) = input.expect("Horizontal requires an input relation");
            let column = rng.gen_range(0..info.arity);
            let c_s = pick_constant(options, rng);
            let c_t = pick_constant(options, rng);
            let s_name = names.fresh();
            let t_name = names.fresh();
            let part_info = info.clone();
            // Forward: σ_{C=cS}(R) = S, σ_{C=cT}(R) = T.
            let forward = vec![
                Constraint::equality(
                    Expr::rel(name).select(Pred::eq_const(column, c_s)),
                    Expr::rel(s_name.clone()),
                ),
                Constraint::equality(
                    Expr::rel(name).select(Pred::eq_const(column, c_t)),
                    Expr::rel(t_name.clone()),
                ),
            ];
            // Backward: R = S ∪ T.
            let backward = Constraint::equality(
                Expr::rel(name),
                Expr::rel(s_name.clone()).union(Expr::rel(t_name.clone())),
            );
            let constraints = match kind {
                PrimitiveKind::HorizontalForward => forward,
                PrimitiveKind::HorizontalBackward => vec![backward],
                _ => {
                    let mut all = forward;
                    all.push(backward);
                    all
                }
            };
            EditOutcome {
                kind,
                consumed: Some(name.to_string()),
                created: vec![(s_name, part_info.clone()), (t_name, part_info)],
                constraints,
            }
        }
        PrimitiveKind::VerticalForward
        | PrimitiveKind::VerticalBackward
        | PrimitiveKind::Vertical
        | PrimitiveKind::NormalizeForward
        | PrimitiveKind::NormalizeBackward
        | PrimitiveKind::Normalize => {
            let (name, info) = input.expect("partitioning requires an input relation");
            split_relation(kind, name, info, names, rng)
        }
        PrimitiveKind::Subset | PrimitiveKind::Superset => {
            let (name, info) = input.expect("Subset/Superset require an input relation");
            let new_name = names.fresh();
            let new_info = info.clone();
            let constraint = match kind {
                PrimitiveKind::Subset => {
                    Constraint::containment(Expr::rel(name), Expr::rel(new_name.clone()))
                }
                _ => Constraint::containment(Expr::rel(new_name.clone()), Expr::rel(name)),
            };
            EditOutcome {
                kind,
                consumed: Some(name.to_string()),
                created: vec![(new_name, new_info)],
                constraints: vec![constraint],
            }
        }
    }
}

/// Shared implementation of vertical partitioning and normalization:
/// `R(A,B,C)` (with `A` the leading columns, the key when present) becomes
/// `S(A,B)` and `T(A,C)`.
fn split_relation<R: Rng>(
    kind: PrimitiveKind,
    name: &str,
    info: &RelInfo,
    names: &mut NameSource,
    rng: &mut R,
) -> EditOutcome {
    let arity = info.arity;
    // Leading shared columns: the declared key, or a single leading column
    // for the normalization variants on key-less relations.
    let shared = info.key.as_ref().map_or(1, std::vec::Vec::len).min(arity.saturating_sub(2));
    let shared = shared.max(1);
    // Split the remaining columns into two non-empty contiguous groups.
    let split_point = rng.gen_range(shared + 1..arity);
    let s_cols: Vec<usize> = (0..split_point).collect();
    let t_cols: Vec<usize> = (0..shared).chain(split_point..arity).collect();
    let s_name = names.fresh();
    let t_name = names.fresh();
    // Both parts share the leading columns, which act as their key.
    let part_key = info.key.as_ref().map(|_| (0..shared).collect::<Vec<_>>());
    let s_info = RelInfo { arity: s_cols.len(), key: part_key.clone() };
    let t_info = RelInfo { arity: t_cols.len(), key: part_key };

    // Forward: π_{A,B}(R) = S and π_{A,C}(R) = T.
    let forward = vec![
        Constraint::equality(Expr::rel(name).project(s_cols.clone()), Expr::rel(s_name.clone())),
        Constraint::equality(Expr::rel(name).project(t_cols.clone()), Expr::rel(t_name.clone())),
    ];
    // Backward: R = S ⋈_A T (join on the shared leading columns; the join
    // output column order matches R because the groups are contiguous).
    let join_pairs: Vec<(usize, usize)> = (0..shared).map(|i| (i, i)).collect();
    let backward = Constraint::equality(
        Expr::rel(name),
        Expr::rel(s_name.clone()).join_on(
            Expr::rel(t_name.clone()),
            &join_pairs,
            s_cols.len(),
            t_cols.len(),
        ),
    );
    // Normalization additionally states π_A(T) ⊆ π_A(S).
    let inclusion = Constraint::containment(
        Expr::rel(t_name.clone()).project((0..shared).collect()),
        Expr::rel(s_name.clone()).project((0..shared).collect()),
    );

    let mut constraints = match kind {
        PrimitiveKind::VerticalForward | PrimitiveKind::NormalizeForward => forward,
        PrimitiveKind::VerticalBackward | PrimitiveKind::NormalizeBackward => vec![backward],
        _ => {
            let mut all = forward;
            all.push(backward);
            all
        }
    };
    if matches!(
        kind,
        PrimitiveKind::NormalizeForward
            | PrimitiveKind::NormalizeBackward
            | PrimitiveKind::Normalize
    ) {
        constraints.push(inclusion);
    }

    EditOutcome {
        kind,
        consumed: Some(name.to_string()),
        created: vec![(s_name, s_info), (t_name, t_info)],
        constraints,
    }
}

fn pick_constant<R: Rng>(options: &PrimitiveOptions, rng: &mut R) -> Value {
    let pool = &options.constant_pool;
    pool[rng.gen_range(0..pool.len())].clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapcomp_algebra::{OperatorSet, Signature};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    fn validate(outcome: &EditOutcome, input: Option<(&str, &RelInfo)>) {
        // Every outcome's constraints must type-check over the combined
        // signature of input + created relations.
        let mut sig = Signature::new();
        if let Some((name, info)) = input {
            sig.add(name, info.clone());
        }
        for (name, info) in &outcome.created {
            sig.add(name.clone(), info.clone());
        }
        let ops = OperatorSet::new();
        for constraint in &outcome.constraints {
            constraint.validate(&sig, &ops).unwrap_or_else(|e| {
                panic!("constraint {constraint} of {:?} fails to validate: {e}", outcome.kind)
            });
        }
    }

    #[test]
    fn add_relation_creates_without_constraints() {
        let mut names = NameSource::new();
        let outcome = apply_primitive(
            PrimitiveKind::AddRelation,
            None,
            &PrimitiveOptions::default(),
            &mut names,
            &mut rng(),
        );
        assert_eq!(outcome.created.len(), 1);
        assert!(outcome.constraints.is_empty());
        assert!(outcome.consumed.is_none());
        let (_, info) = &outcome.created[0];
        assert!((2..=10).contains(&info.arity));
        validate(&outcome, None);
    }

    #[test]
    fn add_attribute_produces_projection_equality() {
        let mut names = NameSource::new();
        let info = RelInfo::new(3);
        let outcome = apply_primitive(
            PrimitiveKind::AddAttribute,
            Some(("Orig", &info)),
            &PrimitiveOptions::default(),
            &mut names,
            &mut rng(),
        );
        assert_eq!(outcome.consumed.as_deref(), Some("Orig"));
        assert_eq!(outcome.created[0].1.arity, 4);
        assert_eq!(outcome.constraints.len(), 1);
        assert!(outcome.constraints[0].is_equality());
        validate(&outcome, Some(("Orig", &info)));
    }

    #[test]
    fn drop_attribute_keeps_key_columns() {
        let mut names = NameSource::new();
        let info = RelInfo::with_key(4, vec![0, 1]);
        for _ in 0..20 {
            let outcome = apply_primitive(
                PrimitiveKind::DropAttribute,
                Some(("Orig", &info)),
                &PrimitiveOptions::with_keys(),
                &mut names,
                &mut rng(),
            );
            // The projection on the lhs must retain columns 0 and 1.
            match outcome.constraints[0].lhs.as_ref() {
                Expr::Project(cols, _) => {
                    assert!(cols.contains(&0) && cols.contains(&1), "key column dropped: {cols:?}");
                    assert_eq!(cols.len(), 3);
                }
                other => panic!("unexpected lhs {other:?}"),
            }
            validate(&outcome, Some(("Orig", &info)));
        }
    }

    #[test]
    fn add_default_variants_differ() {
        let info = RelInfo::new(2);
        let options = PrimitiveOptions::default();
        for (kind, expected) in [
            (PrimitiveKind::AddDefaultForward, 1),
            (PrimitiveKind::AddDefaultBackward, 1),
            (PrimitiveKind::AddDefault, 2),
        ] {
            let mut names = NameSource::new();
            let outcome =
                apply_primitive(kind, Some(("Orig", &info)), &options, &mut names, &mut rng());
            assert_eq!(outcome.constraints.len(), expected, "{kind:?}");
            assert_eq!(outcome.created[0].1.arity, 3);
            validate(&outcome, Some(("Orig", &info)));
        }
    }

    #[test]
    fn horizontal_partitioning_produces_two_relations() {
        let info = RelInfo::new(3);
        let options = PrimitiveOptions::default();
        for (kind, expected) in [
            (PrimitiveKind::HorizontalForward, 2),
            (PrimitiveKind::HorizontalBackward, 1),
            (PrimitiveKind::Horizontal, 3),
        ] {
            let mut names = NameSource::new();
            let outcome =
                apply_primitive(kind, Some(("Orig", &info)), &options, &mut names, &mut rng());
            assert_eq!(outcome.created.len(), 2);
            assert_eq!(outcome.constraints.len(), expected, "{kind:?}");
            validate(&outcome, Some(("Orig", &info)));
        }
    }

    #[test]
    fn vertical_partitioning_splits_columns() {
        let info = RelInfo::with_key(5, vec![0]);
        let options = PrimitiveOptions::with_keys();
        for kind in [
            PrimitiveKind::VerticalForward,
            PrimitiveKind::VerticalBackward,
            PrimitiveKind::Vertical,
        ] {
            let mut names = NameSource::new();
            let outcome =
                apply_primitive(kind, Some(("Orig", &info)), &options, &mut names, &mut rng());
            assert_eq!(outcome.created.len(), 2);
            let total: usize = outcome.created.iter().map(|(_, i)| i.arity).sum();
            // The key column is duplicated across the two parts.
            assert_eq!(total, 6);
            validate(&outcome, Some(("Orig", &info)));
        }
    }

    #[test]
    fn normalization_adds_inclusion_constraint() {
        let info = RelInfo::new(4);
        let options = PrimitiveOptions::default();
        let mut names = NameSource::new();
        let outcome = apply_primitive(
            PrimitiveKind::Normalize,
            Some(("Orig", &info)),
            &options,
            &mut names,
            &mut rng(),
        );
        // forward (2) + backward (1) + inclusion (1).
        assert_eq!(outcome.constraints.len(), 4);
        assert!(outcome.constraints.iter().any(|c| !c.is_equality()));
        validate(&outcome, Some(("Orig", &info)));
    }

    #[test]
    fn subset_and_superset_directions() {
        let info = RelInfo::new(2);
        let options = PrimitiveOptions::default();
        let mut names = NameSource::new();
        let sub = apply_primitive(
            PrimitiveKind::Subset,
            Some(("Orig", &info)),
            &options,
            &mut names,
            &mut rng(),
        );
        assert_eq!(*sub.constraints[0].lhs, Expr::rel("Orig"));
        let sup = apply_primitive(
            PrimitiveKind::Superset,
            Some(("Orig", &info)),
            &options,
            &mut names,
            &mut rng(),
        );
        assert_eq!(*sup.constraints[0].rhs, Expr::rel("Orig"));
        validate(&sub, Some(("Orig", &info)));
        validate(&sup, Some(("Orig", &info)));
    }

    #[test]
    fn labels_and_metadata() {
        assert_eq!(PrimitiveKind::ALL.len(), 18);
        assert_eq!(PrimitiveKind::Subset.label(), "SUB");
        assert_eq!(PrimitiveKind::AddDefaultForward.to_string(), "Df");
        assert!(!PrimitiveKind::AddRelation.consumes_input());
        assert!(PrimitiveKind::Vertical.requires_key());
        assert!(!PrimitiveKind::Normalize.requires_key());
        assert_eq!(PrimitiveKind::Normalize.min_input_arity(), 3);
        assert_eq!(PrimitiveKind::AddRelation.min_input_arity(), 0);
    }

    #[test]
    fn random_relation_respects_options() {
        let mut names = NameSource::new();
        let mut generator = rng();
        for _ in 0..30 {
            let (_, info) =
                random_relation(&PrimitiveOptions::default(), &mut names, &mut generator);
            assert!((2..=10).contains(&info.arity));
            assert!(info.key.is_none());
        }
        let mut any_key = false;
        for _ in 0..30 {
            let (_, info) =
                random_relation(&PrimitiveOptions::with_keys(), &mut names, &mut generator);
            if let Some(key) = &info.key {
                any_key = true;
                assert!((1..=3).contains(&key.len()));
                assert!(key.len() <= info.arity);
            }
        }
        assert!(any_key);
    }
}
