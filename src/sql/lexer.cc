#include "sql/lexer.h"

#include <cctype>

#include "common/str_util.h"

namespace skinner {

bool Token::Is(const char* kw) const {
  if (type != TokenType::kIdent) return false;
  size_t n = text.size();
  for (size_t i = 0; i < n; ++i) {
    if (kw[i] == '\0') return false;
    if (std::toupper(static_cast<unsigned char>(text[i])) !=
        std::toupper(static_cast<unsigned char>(kw[i]))) {
      return false;
    }
  }
  return kw[n] == '\0';
}

Result<std::vector<Token>> Lex(const std::string& sql) {
  std::vector<Token> out;
  size_t i = 0;
  const size_t n = sql.size();
  while (i < n) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // -- comment
    if (c == '-' && i + 1 < n && sql[i + 1] == '-') {
      while (i < n && sql[i] != '\n') ++i;
      continue;
    }
    Token tok;
    tok.pos = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(sql[i])) ||
                       sql[i] == '_')) {
        ++i;
      }
      tok.type = TokenType::kIdent;
      tok.text = sql.substr(start, i - start);
      out.push_back(std::move(tok));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n && std::isdigit(static_cast<unsigned char>(sql[i + 1])))) {
      size_t start = i;
      bool is_double = false;
      while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      if (i < n && sql[i] == '.') {
        is_double = true;
        ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      }
      if (i < n && (sql[i] == 'e' || sql[i] == 'E')) {
        is_double = true;
        ++i;
        if (i < n && (sql[i] == '+' || sql[i] == '-')) ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      }
      std::string text = sql.substr(start, i - start);
      if (is_double) {
        tok.type = TokenType::kDouble;
        SKINNER_ASSIGN_OR_RETURN(tok.double_val, ParseDouble(text));
      } else {
        tok.type = TokenType::kInt;
        SKINNER_ASSIGN_OR_RETURN(tok.int_val, ParseInt64(text));
      }
      tok.text = std::move(text);
      out.push_back(std::move(tok));
      continue;
    }
    if (c == '\'') {
      ++i;
      std::string s;
      bool closed = false;
      while (i < n) {
        if (sql[i] == '\'') {
          if (i + 1 < n && sql[i + 1] == '\'') {
            s += '\'';
            i += 2;
            continue;
          }
          ++i;
          closed = true;
          break;
        }
        s += sql[i];
        ++i;
      }
      if (!closed) {
        return Status::ParseError(
            StrFormat("unterminated string literal at offset %zu", tok.pos));
      }
      tok.type = TokenType::kString;
      tok.text = std::move(s);
      out.push_back(std::move(tok));
      continue;
    }
    if (c == '?') {
      tok.type = TokenType::kParam;
      tok.text = "?";
      ++i;
      out.push_back(std::move(tok));
      continue;
    }
    // Multi-char symbols first.
    auto two = (i + 1 < n) ? sql.substr(i, 2) : std::string();
    if (two == "<>" || two == "!=" || two == "<=" || two == ">=") {
      tok.type = TokenType::kSymbol;
      tok.text = two;
      i += 2;
      out.push_back(std::move(tok));
      continue;
    }
    static const char kSingles[] = "(),.=<>+-*/%;";
    bool matched = false;
    for (const char* p = kSingles; *p; ++p) {
      if (c == *p) {
        matched = true;
        break;
      }
    }
    if (!matched) {
      return Status::ParseError(
          StrFormat("unexpected character '%c' at offset %zu", c, i));
    }
    tok.type = TokenType::kSymbol;
    tok.text = std::string(1, c);
    ++i;
    out.push_back(std::move(tok));
  }
  Token end;
  end.type = TokenType::kEnd;
  end.pos = n;
  out.push_back(std::move(end));
  return out;
}

}  // namespace skinner
