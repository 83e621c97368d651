#include "xml/parser.h"

#include <vector>

#include "common/str_util.h"
#include "xml/lexer.h"

namespace xorator::xml {

namespace {

// Copies the attributes of the lexer's most recent start tag onto `elem`.
Status AddAttributes(Lexer* lexer, Node* elem) {
  return lexer->DecodeAttributes([elem](std::string_view name,
                                        std::string value) {
    elem->AddAttribute(std::string(name), std::move(value));
    return Status::OK();
  });
}

// Appends the lexer's tokens under `parent` until `parent`'s own end tag
// (a document root) or the end of input (a fragment). Iterative: the open
// elements live on `stack`, bounded by ParserLimits::max_depth.
Status BuildContent(Lexer* lexer, const ParseOptions& options, Node* parent) {
  std::vector<Node*> stack = {parent};
  while (true) {
    XO_ASSIGN_OR_RETURN(Token token, lexer->Next());
    switch (token.kind) {
      case TokenKind::kEof:
        return Status::OK();
      case TokenKind::kStart: {
        Node* elem =
            stack.back()->AddChild(Node::Element(std::string(token.name)));
        XO_RETURN_NOT_OK(AddAttributes(lexer, elem));
        stack.push_back(elem);
        break;
      }
      case TokenKind::kEnd:
        stack.pop_back();
        if (stack.empty()) return Status::OK();
        break;
      case TokenKind::kText:
        if (token.cdata ||
            !(options.strip_whitespace_text && StripWhitespace(token.text).empty())) {
          stack.back()->AddChild(Node::Text(std::string(token.text)));
        }
        break;
    }
  }
}

}  // namespace

Result<Document> ParseDocument(std::string_view input,
                               const ParseOptions& options) {
  Lexer lexer(input, 0, options.limits);
  Document doc;
  // Prolog: XML declaration, comments, PIs, whitespace and DOCTYPE.
  while (true) {
    XO_RETURN_NOT_OK(lexer.SkipMisc());
    if (!lexer.AtDoctype()) break;
    XO_RETURN_NOT_OK(lexer.LexDoctype(&doc.doctype_name, &doc.internal_subset));
  }
  // The lexer skips an empty CDATA section (it carries no character data),
  // so one here must be rejected before asking for the root token.
  if (lexer.AtCdata()) return lexer.Error("expected root element");
  XO_ASSIGN_OR_RETURN(Token root, lexer.Next());
  if (root.kind != TokenKind::kStart) {
    return lexer.Error("expected root element");
  }
  doc.root = Node::Element(std::string(root.name));
  XO_RETURN_NOT_OK(AddAttributes(&lexer, doc.root.get()));
  XO_RETURN_NOT_OK(BuildContent(&lexer, options, doc.root.get()));
  XO_RETURN_NOT_OK(lexer.SkipMisc());
  if (!lexer.AtEnd()) return lexer.Error("content after root element");
  return doc;
}

Result<std::unique_ptr<Node>> ParseFragment(std::string_view input,
                                            const ParseOptions& options) {
  Lexer lexer(input, 0, options.limits);
  auto root = Node::Element("#fragment");
  XO_RETURN_NOT_OK(BuildContent(&lexer, options, root.get()));
  return root;
}

}  // namespace xorator::xml
