//! Deriving next-state functions from the state graph.

use bdd::{Bdd, Func};
use petri::ExploreLimits;
use stg::{Signal, StateGraph, Stg};

use crate::cover::Equation;
use crate::error::SynthError;
use crate::isop::isop;
use crate::unate::Unateness;

/// The next-state functions of all circuit-driven signals of a
/// CSC-satisfying STG, represented over one shared BDD manager with
/// variable `i` = signal `i`'s code bit.
///
/// See the crate-level example.
pub struct NextStateFunctions<'a> {
    stg: &'a Stg,
    manager: Bdd,
    /// Per local signal: (on-set over reachable codes, signal).
    on_sets: Vec<(Signal, Func)>,
    /// Characteristic function of the reachable codes (the care set).
    care: Func,
}

impl<'a> NextStateFunctions<'a> {
    /// Builds the functions by enumerating the state graph.
    ///
    /// # Errors
    ///
    /// * [`SynthError::StateGraph`] if the state graph cannot be
    ///   built within `limits` (or the STG is inconsistent);
    /// * [`SynthError::CodingConflict`] if two states share a code
    ///   but disagree on some `Nxt_z` — i.e. CSC is violated for `z`.
    pub fn derive(stg: &'a Stg, limits: ExploreLimits) -> Result<Self, SynthError> {
        let sg =
            StateGraph::build(stg, limits).map_err(|e| SynthError::StateGraph(e.to_string()))?;
        let mut manager = Bdd::new();
        let locals: Vec<Signal> = stg.local_signals().collect();
        let mut care = manager.constant(false);
        let mut on: Vec<Func> = vec![manager.constant(false); locals.len()];
        let mut off: Vec<Func> = vec![manager.constant(false); locals.len()];
        for s in sg.states() {
            let code = sg.code(s);
            // Minterm of this state's code.
            let mut minterm = manager.constant(true);
            for z in stg.signals() {
                let lit = if code.bit(z) {
                    manager.var(z.index() as u32)
                } else {
                    manager.nvar(z.index() as u32)
                };
                minterm = manager.and(&minterm, &lit);
            }
            care = manager.or(&care, &minterm);
            for (i, &z) in locals.iter().enumerate() {
                if stg.next_state(sg.marking(s), code, z) {
                    on[i] = manager.or(&on[i], &minterm);
                } else {
                    off[i] = manager.or(&off[i], &minterm);
                }
            }
        }
        // Well-definedness: on and off sets must be disjoint.
        for (i, &z) in locals.iter().enumerate() {
            let overlap = manager.and(&on[i], &off[i]);
            if !overlap.is_false() {
                return Err(SynthError::CodingConflict { signal: z });
            }
        }
        Ok(NextStateFunctions {
            stg,
            manager,
            on_sets: locals.into_iter().zip(on).collect(),
            care,
        })
    }

    /// The signals with derived functions (outputs + internal).
    pub fn signals(&self) -> impl Iterator<Item = Signal> + '_ {
        self.on_sets.iter().map(|&(z, _)| z)
    }

    fn entry(&self, z: Signal) -> (Signal, Func) {
        self.on_sets
            .iter()
            .find(|&&(s, _)| s == z)
            .map(|(s, f)| (*s, f.clone()))
            .unwrap_or_else(|| panic!("signal {z} is not circuit-driven"))
    }

    /// The on-set of `Nxt_z` restricted to reachable codes.
    ///
    /// # Panics
    ///
    /// Panics if `z` is an input signal.
    pub fn on_set(&self, z: Signal) -> Func {
        self.entry(z).1
    }

    /// The characteristic function of reachable codes (care set).
    pub fn care_set(&self) -> Func {
        self.care.clone()
    }

    /// Access to the shared BDD manager.
    pub fn manager(&mut self) -> &mut Bdd {
        &mut self.manager
    }

    /// An irredundant sum-of-products cover of `Nxt_z`, using
    /// unreachable codes as don't-cares (ISOP between `on` and
    /// `on ∨ ¬care`).
    ///
    /// # Panics
    ///
    /// Panics if `z` is an input signal.
    pub fn equation(&mut self, z: Signal) -> Equation<'a> {
        let (_, on) = self.entry(z);
        let care = self.care.clone();
        let not_care = self.manager.not(&care);
        let upper = self.manager.or(&on, &not_care);
        let (cubes, cover) = isop(&mut self.manager, &on, &upper);
        // The cover must agree with the on-set on the care space.
        debug_assert_eq!(self.manager.and(&cover, &care), on);
        Equation {
            stg: self.stg,
            signal: z,
            cubes,
        }
    }

    /// Unateness of `Nxt_z` (computed on the cover between on-set and
    /// don't-cares — the function the circuit actually implements).
    ///
    /// # Panics
    ///
    /// Panics if `z` is an input signal.
    pub fn unateness(&mut self, z: Signal) -> Unateness {
        let (_, on) = self.entry(z);
        let care = self.care.clone();
        let not_care = self.manager.not(&care);
        let upper = self.manager.or(&on, &not_care);
        let (_, cover) = isop(&mut self.manager, &on, &upper);
        Unateness::of(&mut self.manager, &cover, self.stg.num_signals() as u32)
    }

    /// Set/reset covers for a generalized C-element (gC)
    /// implementation of `z`: the *set* cover fires on states where
    /// `z` is low and excited (`z = 0 ∧ Nxt_z = 1`), the *reset*
    /// cover where `z` is high and excited to fall. States where `z`
    /// holds its value — and all unreachable codes — are don't-cares,
    /// which is what makes gC covers much smaller than the flat
    /// next-state equation.
    ///
    /// # Panics
    ///
    /// Panics if `z` is an input signal.
    pub fn gc_covers(&mut self, z: Signal) -> (Equation<'a>, Equation<'a>) {
        let (_, on) = self.entry(z);
        let care = self.care.clone();
        let zvar = z.index() as u32;
        let m = &mut self.manager;
        let z_low = m.nvar(zvar);
        let z_high = m.var(zvar);
        let not_on = m.not(&on);
        let off = m.and(&care, &not_on);
        // Set: must cover (z=0 ∧ Nxt=1); must avoid (z=0 ∧ Nxt=0).
        let set_lower = m.and(&z_low, &on);
        let set_forbidden = m.and(&z_low, &off);
        let set_upper = m.not(&set_forbidden);
        let (set_cubes, set_cover) = isop(m, &set_lower, &set_upper);
        debug_assert_eq!(m.and(&set_cover, &set_lower), set_lower);
        debug_assert!(m.and(&set_cover, &set_forbidden).is_false());
        // Reset: must cover (z=1 ∧ Nxt=0); must avoid (z=1 ∧ Nxt=1).
        let reset_lower = m.and(&z_high, &off);
        let reset_forbidden = m.and(&z_high, &on);
        let reset_upper = m.not(&reset_forbidden);
        let (reset_cubes, reset_cover) = isop(m, &reset_lower, &reset_upper);
        debug_assert_eq!(m.and(&reset_cover, &reset_lower), reset_lower);
        debug_assert!(m.and(&reset_cover, &reset_forbidden).is_false());
        (
            Equation {
                stg: self.stg,
                signal: z,
                cubes: set_cubes,
            },
            Equation {
                stg: self.stg,
                signal: z,
                cubes: reset_cubes,
            },
        )
    }

    /// Whether a monotone *nondecreasing* completion of `Nxt_z` over
    /// the don't-care space exists: no reachable on-code may be
    /// dominated (componentwise) by a reachable off-code. This is
    /// exactly p-normalcy (§6) expressed over codes.
    ///
    /// # Panics
    ///
    /// Panics if `z` is an input signal.
    pub fn has_increasing_completion(&mut self, z: Signal) -> bool {
        self.has_monotone_completion(z, true)
    }

    /// Whether a monotone *nonincreasing* completion exists — exactly
    /// n-normalcy over codes.
    ///
    /// # Panics
    ///
    /// Panics if `z` is an input signal.
    pub fn has_decreasing_completion(&mut self, z: Signal) -> bool {
        self.has_monotone_completion(z, false)
    }

    fn has_monotone_completion(&mut self, z: Signal, increasing: bool) -> bool {
        let (_, on) = self.entry(z);
        let care = self.care.clone();
        let n = self.stg.num_signals() as u32;
        let m = &mut self.manager;
        let not_on = m.not(&on);
        let off = m.and(&care, &not_on);
        // Close the on-set upward (increasing case) or downward, one
        // code bit at a time: a code joins when lowering (raising) its
        // bit `v` lands in the set. After all `n` bits the closure
        // holds every code that dominates (is dominated by) an
        // on-code, without a second block of variables — a relation
        // `x ≤ y` over two separate blocks is exponential in `n`.
        let mut closure = on;
        for v in 0..n {
            let neighbour = m.restrict(&closure, v, !increasing);
            let literal = if increasing { m.var(v) } else { m.nvar(v) };
            let moved = m.and(&literal, &neighbour);
            closure = m.or(&closure, &moved);
        }
        // A violating pair: an off-code inside the closure.
        m.and(&closure, &off).is_false()
    }

    /// Whether `Nxt_z` is implementable with monotonic gates in the
    /// §6 sense: some monotone (nondecreasing or nonincreasing)
    /// completion exists. Equivalent to signal `z` being p-normal or
    /// n-normal.
    ///
    /// # Panics
    ///
    /// Panics if `z` is an input signal.
    pub fn is_monotonic(&mut self, z: Signal) -> bool {
        self.has_increasing_completion(z) || self.has_decreasing_completion(z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stg::gen::counterflow::counterflow_sym;
    use stg::gen::vme::{vme_read, vme_read_csc_resolved};

    #[test]
    fn vme_without_csc_has_no_functions() {
        let model = vme_read();
        match NextStateFunctions::derive(&model, Default::default()) {
            Err(SynthError::CodingConflict { signal }) => {
                // The conflict manifests on lds or d (Out = {lds} vs {d}).
                let name = model.signal_name(signal);
                assert!(name == "lds" || name == "d", "got {name}");
            }
            other => panic!("expected a coding conflict, got {:?}", other.is_ok()),
        }
    }

    #[test]
    fn resolved_vme_equations_match_the_paper() {
        let model = vme_read_csc_resolved();
        let mut fns = NextStateFunctions::derive(&model, Default::default()).unwrap();
        let eq = |fns: &mut NextStateFunctions, name: &str| {
            let z = model.signal_by_name(name).unwrap();
            fns.equation(z).to_string()
        };
        // §6 of the paper: dtack = d, lds = d + csc, d = ldtack csc.
        assert_eq!(eq(&mut fns, "dtack"), "dtack = d");
        assert_eq!(eq(&mut fns, "lds"), "lds = d + csc");
        assert_eq!(eq(&mut fns, "d"), "d = ldtack csc");
        // csc = dsr (csc + ldtack') — our ISOP writes it as a SOP
        // with the same three literals-per-path structure; verify
        // functional equivalence instead of syntax.
        let csc = model.signal_by_name("csc").unwrap();
        let equation = fns.equation(csc);
        // Paper function: csc' = dsr ∧ (csc ∨ ¬ldtack).
        let dsr = model.signal_by_name("dsr").unwrap().index() as u32;
        let ldtack = model.signal_by_name("ldtack").unwrap().index() as u32;
        let csc_v = csc.index() as u32;
        let care = fns.care_set();
        let m = fns.manager();
        let paper = {
            let vd = m.var(dsr);
            let vc = m.var(csc_v);
            let nl = m.nvar(ldtack);
            let or = m.or(&vc, &nl);
            m.and(&vd, &or)
        };
        // Compare on the reachable codes only.
        let mut cover = m.constant(false);
        for cube in &equation.cubes {
            let mut c = m.constant(true);
            for &(v, pos) in &cube.literals {
                let lit = if pos { m.var(v) } else { m.nvar(v) };
                c = m.and(&c, &lit);
            }
            cover = m.or(&cover, &c);
        }
        let lhs = m.and(&cover, &care);
        let rhs = m.and(&paper, &care);
        assert_eq!(
            lhs, rhs,
            "csc function matches the paper on reachable codes"
        );
    }

    #[test]
    fn monotonicity_matches_normalcy() {
        // Resolved VME: dtack, lds, d are p-normal => monotonic; csc
        // is neither p- nor n-normal => binate.
        let model = vme_read_csc_resolved();
        let mut fns = NextStateFunctions::derive(&model, Default::default()).unwrap();
        for name in ["dtack", "lds", "d"] {
            let z = model.signal_by_name(name).unwrap();
            assert!(fns.is_monotonic(z), "{name} must be monotonic");
        }
        let csc = model.signal_by_name("csc").unwrap();
        assert!(!fns.is_monotonic(csc));
    }

    #[test]
    fn gc_covers_are_correct_on_every_reachable_state() {
        use stg::StateGraph;
        let model = vme_read_csc_resolved();
        let sg = StateGraph::build(&model, Default::default()).unwrap();
        let mut fns = NextStateFunctions::derive(&model, Default::default()).unwrap();
        let signals: Vec<Signal> = fns.signals().collect();
        for z in signals {
            let (set, reset) = fns.gc_covers(z);
            for s in sg.states() {
                let code = sg.code(s);
                let bits: Vec<bool> = code.bits().collect();
                let nxt = model.next_state(sg.marking(s), code, z);
                let set_v = set.eval(&|v| bits[v as usize]);
                let reset_v = reset.eval(&|v| bits[v as usize]);
                if !code.bit(z) && nxt {
                    assert!(set_v, "set must fire when z is excited to rise");
                }
                if !code.bit(z) && !nxt {
                    assert!(!set_v, "set must not fire when z stays low");
                }
                if code.bit(z) && !nxt {
                    assert!(reset_v, "reset must fire when z is excited to fall");
                }
                if code.bit(z) && nxt {
                    assert!(!reset_v, "reset must not fire when z stays high");
                }
            }
        }
    }

    #[test]
    fn gc_covers_are_no_larger_than_the_flat_equation() {
        let model = vme_read_csc_resolved();
        let mut fns = NextStateFunctions::derive(&model, Default::default()).unwrap();
        let csc = model.signal_by_name("csc").unwrap();
        let flat = fns.equation(csc).literal_count();
        let (set, reset) = fns.gc_covers(csc);
        assert!(set.literal_count() <= flat);
        assert!(reset.literal_count() <= flat);
    }

    #[test]
    fn counterflow_functions_cover_on_sets() {
        let model = counterflow_sym(2, 2);
        let mut fns = NextStateFunctions::derive(&model, Default::default()).unwrap();
        let signals: Vec<Signal> = fns.signals().collect();
        for z in signals {
            let eq = fns.equation(z);
            assert!(!eq.to_string().is_empty());
        }
    }
}
