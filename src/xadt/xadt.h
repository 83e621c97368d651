#ifndef XORATOR_XADT_XADT_H_
#define XORATOR_XADT_XADT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "xml/dom.h"

namespace xorator::xadt {

/// The XADT value encoding (Section 3.4.1 of the paper).
///
/// An XADT value stores a *fragment*: an ordered forest of XML subtrees
/// (e.g. every LINE child of one SPEECH). Two on-disk representations exist:
///
///   * raw ('R'): the tagged XML text of the fragments, concatenated;
///   * compressed ('C'): an XMill-inspired form in which element/attribute
///     names are replaced by integer codes, with a per-value dictionary
///     mapping codes back to names.
///
/// The first byte of the encoded value selects the representation. All
/// methods accept either representation and produce their output in the same
/// representation as their input.

/// True if `bytes` holds the compressed representation.
bool IsCompressed(std::string_view bytes);

/// Encodes `fragments` (subtree roots; borrowed) in the raw representation.
std::string EncodeRaw(const std::vector<const xml::Node*>& fragments);

/// Encodes `fragments` in the compressed (tag-dictionary) representation.
std::string EncodeCompressed(const std::vector<const xml::Node*>& fragments);

/// Encodes with the representation chosen by `compressed`.
std::string Encode(const std::vector<const xml::Node*>& fragments,
                   bool compressed);

/// Decodes an XADT value into a DOM forest under a synthetic `#fragment`
/// root node: the inverse of Encode, keeping every text node (whitespace
/// included) in either representation. One DOM builder over
/// FragmentScanner events serves both representations, charging each node
/// to the statement's bound guard.
[[nodiscard]] Result<std::unique_ptr<xml::Node>> Decode(std::string_view bytes);

/// Renders an XADT value back to XML text (no enclosing root).
[[nodiscard]] Result<std::string> ToXmlString(std::string_view bytes);

/// Concatenated text content of all fragments.
[[nodiscard]] Result<std::string> TextContent(std::string_view bytes);

/// The least share of the raw size compression must save to be chosen: the
/// paper's 20% rule (Section 4.1).
inline constexpr double kMinCompressionSaving = 0.2;

/// The choice between the two representations, from the XADT bytes of the
/// same sample encoded both ways: compressed when that saves at least
/// kMinCompressionSaving of a non-empty raw size.
bool ChooseCompression(uint64_t raw_bytes, uint64_t compressed_bytes);

// ---------------------------------------------------------------------------
// XADT methods (Section 3.4.2). These mirror the UDFs the paper registered
// with DB2 and are registered as UDFs with the ordb engine by
// RegisterXadtFunctions() in xadt/functions.h.
// ---------------------------------------------------------------------------

/// Returns all `root_elm` elements (searched descendant-or-self across the
/// fragments) that contain a `search_elm` descendant within `level` levels
/// (level <= 0: any depth) whose text content contains `search_key`.
/// Per the paper: an empty `search_key` only requires `search_elm` to exist;
/// an empty `search_elm` returns all `root_elm` elements.
[[nodiscard]] Result<std::string> GetElm(std::string_view in, std::string_view root_elm,
                           std::string_view search_elm,
                           std::string_view search_key, int level = 0);

/// Returns 1 if some `search_elm` element's text contains `search_key`
/// (empty `search_elm`: any element; empty `search_key`: existence test).
/// Both arguments empty is an error.
[[nodiscard]] Result<int64_t> FindKeyInElm(std::string_view in, std::string_view search_elm,
                             std::string_view search_key);

/// Returns all `child_elm` elements that are direct children of
/// `parent_elm` elements with 1-based same-tag sibling position in
/// [start_pos, end_pos]. An empty `parent_elm` treats `child_elm` as the
/// fragment roots. `child_elm` must not be empty.
[[nodiscard]] Result<std::string> GetElmIndex(std::string_view in,
                                std::string_view parent_elm,
                                std::string_view child_elm, int start_pos,
                                int end_pos);

/// Splits the value into one single-element XADT per `tag` element
/// (descendant-or-self; empty `tag`: every top-level fragment). This backs
/// the table UDF `unnest` of Section 3.5.
[[nodiscard]] Result<std::vector<std::string>> Unnest(std::string_view in,
                                        std::string_view tag);

/// Receives one element from UnnestElements.
using UnnestSink = std::function<Status(std::string text, std::string frag)>;

/// The one scan behind Unnest and the `unnest` table UDF. For each element
/// Unnest would return, in the same order, calls `sink` with its text
/// content (TextContent of its fragment) when `want_text`, and with its
/// fragment when `want_frag`; a part not asked for is passed empty and is
/// never built. The text is captured during the scan that finds the
/// elements, so no fragment is lexed twice. Each element charges the
/// statement's budget once, for the parts built.
[[nodiscard]] Status UnnestElements(std::string_view in, std::string_view tag,
                                    bool want_text, bool want_frag,
                                    const UnnestSink& sink);

}  // namespace xorator::xadt

#endif  // XORATOR_XADT_XADT_H_
