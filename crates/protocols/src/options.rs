//! The Section-2 optimization toggles.
//!
//! Each switch corresponds to one row of the paper's Table 1 (dynamic
//! instruction-count savings on the TCP/IP path) or to a measurement
//! variant of Section 2.3, and flips *both* the functional code path and
//! the KIR cost model:
//!
//! | toggle | Table 1 row | saved |
//! |---|---|---|
//! | `wide_types` | bytes/shorts → words in TCP state | 324 |
//! | `msg_refresh_shortcircuit` | efficient message refresh | 208 |
//! | `usc_lance` | direct sparse descriptor access | 171 |
//! | `inline_map_cache` | inlined hash-table cache test | 120 |
//! | `misc_inlining` | various inlining | 119 |
//! | `avoid_division` | shift/add window check | 90 |
//! | `minor_changes` | other minor changes | 39 |


/// Optimization switches for a protocol stack instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StackOptions {
    /// TCP connection state uses word-sized fields instead of
    /// bytes/shorts (the first two Alpha generations have no sub-word
    /// loads/stores, so narrow fields cost extract/insert sequences).
    pub wide_types: bool,
    /// Refresh pool messages in place when the reference count shows the
    /// packet was consumed (skips free()/malloc()).
    pub msg_refresh_shortcircuit: bool,
    /// USC-generated direct access to LANCE descriptors in sparse memory
    /// instead of copy-modify-copy.
    pub usc_lance: bool,
    /// Inline the map's one-entry-cache test at the demux call sites.
    pub inline_map_cache: bool,
    /// Inline sundry small helpers (sequence compares, header length
    /// extraction...).
    pub misc_inlining: bool,
    /// Replace the 35%-of-window integer multiply/divide in the window
    /// update check by a 33% shift-and-add (the Alpha has no integer
    /// divide instruction; division is a software routine).
    pub avoid_division: bool,
    /// Residual small savings (Table 1's "other minor changes").
    pub minor_changes: bool,
    /// BSD header prediction in TCP input.  Helps unidirectional
    /// streams; on bidirectional (request-response) traffic the
    /// prediction always fails and costs a few instructions (§2.3).
    pub header_prediction: bool,
    /// Run the packet classifier on input (required for a path-inlined
    /// input path on a shared network; the paper's PIN/ALL numbers use a
    /// zero-overhead classifier, which is `classifier_enabled = false`).
    pub classifier_enabled: bool,
}

impl StackOptions {
    /// The paper's improved x-kernel: every Section-2 change applied.
    /// This is the base case the Section-3 techniques start from (STD).
    pub fn improved() -> Self {
        StackOptions {
            wide_types: true,
            msg_refresh_shortcircuit: true,
            usc_lance: true,
            inline_map_cache: true,
            misc_inlining: true,
            avoid_division: true,
            minor_changes: true,
            header_prediction: false,
            classifier_enabled: false,
        }
    }

    /// The original x-kernel before the Section-2 work.
    pub fn original() -> Self {
        StackOptions {
            wide_types: false,
            msg_refresh_shortcircuit: false,
            usc_lance: false,
            inline_map_cache: false,
            misc_inlining: false,
            avoid_division: false,
            minor_changes: false,
            header_prediction: false,
            classifier_enabled: false,
        }
    }
}

impl Default for StackOptions {
    fn default() -> Self {
        Self::improved()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improved_enables_all_table1_rows() {
        let o = StackOptions::improved();
        assert!(o.wide_types);
        assert!(o.msg_refresh_shortcircuit);
        assert!(o.usc_lance);
        assert!(o.inline_map_cache);
        assert!(o.misc_inlining);
        assert!(o.avoid_division);
        assert!(o.minor_changes);
        assert!(!o.header_prediction, "bi-directional default");
    }

    #[test]
    fn original_disables_all() {
        let o = StackOptions::original();
        assert!(!o.wide_types && !o.usc_lance && !o.avoid_division);
    }
}
