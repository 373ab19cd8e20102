//! STG surgery: rebuilding an STG with an inserted state signal.

use std::collections::HashMap;

use petri::{PlaceId, TransitionId};
use stg::{Edge, Label, SignalKind, Stg, StgBuilder, StgError};

/// The split rule of an insertion, one entry per new transition in
/// creation order: pair `i` of `hosts` threads a rising edge `u+`
/// through place `hosts[i].0`, then a falling edge `u-` through
/// `hosts[i].1`. Edge `k` splits its host place `p` into
/// `p → u± → p'`: `p` keeps its producers and initial tokens, the new
/// tail place `p'` takes its consumers.
///
/// [`insert_state_signal_multi`] builds this rule into a new [`Stg`];
/// the resolver's scoring kernel patches it into the parent net's bit
/// masks instead, with edge `k`'s tail at place index `|P| + k`.
pub(crate) fn split_edges(
    hosts: &[(PlaceId, PlaceId)],
) -> impl Iterator<Item = (PlaceId, Edge)> + '_ {
    hosts
        .iter()
        .flat_map(|&(p_plus, p_minus)| [(p_plus, Edge::Rise), (p_minus, Edge::Fall)])
}

/// Rebuilds `stg` with a fresh internal signal `name` whose rising
/// edge is threaded through place `p_plus` and whose falling edge
/// through place `p_minus`: each place `p` is split into
/// `p → u± → p'`, with `p` keeping the producers and initial tokens
/// and `p'` taking the consumers.
///
/// The result is *not* guaranteed to be consistent — whether `u+` and
/// `u-` alternate depends on the net's behaviour; the resolver's
/// scoring kernel rejects the candidates where they do not.
///
/// # Errors
///
/// Returns the underlying construction error for malformed inputs.
///
/// # Panics
///
/// Panics if `p_plus == p_minus` (one place cannot host both edges).
pub fn insert_state_signal(
    stg: &Stg,
    name: &str,
    p_plus: PlaceId,
    p_minus: PlaceId,
) -> Result<Stg, StgError> {
    assert_ne!(p_plus, p_minus, "the two edges need distinct host places");
    insert_state_signal_multi(stg, name, &[(p_plus, p_minus)])
}

/// Rebuilds `stg` with a fresh internal signal `name` that *toggles
/// once per host pair*: pair `i` threads a rising edge through place
/// `hosts[i].0` and a falling edge through `hosts[i].1`, each split
/// as `p → u± → p'` exactly like [`insert_state_signal`] (which is
/// the one-pair special case).
///
/// Multi-toggle signals matter on cyclic STGs: a signal with a
/// single rise and fall cuts a sequential cycle into only two
/// constant-value arcs, so `k` such signals distinguish at most `2k`
/// same-code states along the cycle — a hard ceiling no search order
/// can beat. A signal toggling twice contributes four cuts at the
/// cost of one signal, which is how a burst cycle like `dup_mod(6)`
/// (seven same-code states) resolves within a three-signal budget.
///
/// As with the one-pair form, the result is *not* guaranteed to be
/// consistent — the rises and falls must alternate along every
/// execution, which depends on the net's behaviour — and the
/// resolver's scoring kernel rejects the candidates where they do
/// not.
///
/// # Errors
///
/// Returns the underlying construction error for malformed inputs.
///
/// # Panics
///
/// Panics if `hosts` is empty or any two host places coincide (a
/// place can host at most one edge).
pub fn insert_state_signal_multi(
    stg: &Stg,
    name: &str,
    hosts: &[(PlaceId, PlaceId)],
) -> Result<Stg, StgError> {
    assert!(!hosts.is_empty(), "need at least one host pair");
    let net = stg.net();
    let mut b = StgBuilder::new();

    // Signals (preserving order), plus the new internal one.
    for z in stg.signals() {
        b.add_signal(stg.signal_name(z), stg.signal_kind(z));
    }
    let u = b.add_signal(name, SignalKind::Internal);

    // Transitions, preserving labels and names.
    let mut tmap: HashMap<TransitionId, TransitionId> = HashMap::new();
    for t in net.transitions() {
        let new = match stg.label(t) {
            Label::SignalEdge(z, e) => b.edge_named(z, e, stg.transition_name(t)),
            Label::Dummy => b.dummy(stg.transition_name(t)),
        };
        tmap.insert(t, new);
    }
    let mut split: HashMap<PlaceId, TransitionId> = HashMap::new();
    for (host, edge) in split_edges(hosts) {
        let ut = b.edge(u, edge);
        assert!(
            split.insert(host, ut).is_none(),
            "each edge needs its own host place"
        );
    }

    // Places and arcs; the host places are split.
    for p in net.places() {
        let splitter = split.get(&p).copied();
        let head = b.add_place(net.place_name(p));
        for &t in net.place_preset(p) {
            b.arc_tp(tmap[&t], head)?;
        }
        let tail = match splitter {
            None => head,
            Some(ut) => {
                let tail = b.add_place(format!("{}~{name}", net.place_name(p)));
                b.arc_pt(head, ut)?;
                b.arc_tp(ut, tail)?;
                tail
            }
        };
        for &t in net.place_postset(p) {
            b.arc_pt(tail, tmap[&t])?;
        }
        let tokens = stg.initial_marking().tokens(p);
        if tokens > 0 {
            b.mark(head, tokens);
        }
    }

    // Initial code: original bits plus u = 0.
    let mut bits: Vec<bool> = stg.initial_code().bits().collect();
    bits.push(false);
    b.set_initial_code(stg::CodeVec::from_bits(bits));
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stg::gen::vme::vme_read;
    use stg::StateGraph;

    fn place_named(stg: &Stg, name: &str) -> PlaceId {
        stg.net()
            .places()
            .find(|&p| stg.net().place_name(p) == name)
            .unwrap_or_else(|| panic!("no place {name}"))
    }

    #[test]
    fn insertion_preserves_structure_counts() {
        let stg = vme_read();
        let p1 = place_named(&stg, "<ldtack-,lds+>");
        let p2 = place_named(&stg, "<dsr-,d->");
        let fixed = insert_state_signal(&stg, "csc0", p1, p2).unwrap();
        assert_eq!(fixed.num_signals(), stg.num_signals() + 1);
        assert_eq!(
            fixed.net().num_transitions(),
            stg.net().num_transitions() + 2
        );
        assert_eq!(fixed.net().num_places(), stg.net().num_places() + 2);
        assert_eq!(
            fixed.initial_marking().total(),
            stg.initial_marking().total()
        );
    }

    #[test]
    fn fig3_style_insertion_resolves_vme() {
        // The paper's resolution: csc+ on the ldtack- → lds+ handover,
        // csc- between dsr- and d-.
        let stg = vme_read();
        let p_plus = place_named(&stg, "<ldtack-,lds+>");
        let p_minus = place_named(&stg, "<dsr-,d->");
        let fixed = insert_state_signal(&stg, "csc0", p_plus, p_minus).unwrap();
        let sg = StateGraph::build(&fixed, Default::default()).unwrap();
        assert!(
            sg.satisfies_csc(&fixed),
            "the Fig. 3 insertion resolves CSC"
        );
    }

    #[test]
    fn bad_insertion_is_detectably_inconsistent() {
        // Hosting both edges on places of the same short chain makes
        // u+ fire twice before u- can: inconsistent, and our checkers
        // must notice rather than silently accept.
        let stg = vme_read();
        let p_plus = place_named(&stg, "<dsr+,lds+>");
        let p_minus = place_named(&stg, "<dtack-,dsr+>");
        let fixed = insert_state_signal(&stg, "csc0", p_plus, p_minus);
        // Construction succeeds; consistency may fail — both outcomes
        // must be handled by the caller. Here it builds:
        let fixed = fixed.unwrap();
        // Whatever the verdict, StateGraph::build must not panic.
        let _ = StateGraph::build(&fixed, Default::default());
    }

    #[test]
    fn marked_host_place_keeps_its_token() {
        let stg = vme_read();
        let marked = place_named(&stg, "<dtack-,dsr+>");
        let other = place_named(&stg, "<dsr-,d->");
        let fixed = insert_state_signal(&stg, "u", marked, other).unwrap();
        // The token must sit on the head part so u+ can fire first.
        let head = fixed
            .net()
            .places()
            .find(|&p| fixed.net().place_name(p) == "<dtack-,dsr+>")
            .unwrap();
        assert_eq!(fixed.initial_marking().tokens(head), 1);
    }
}
