#include "config/parser.h"

#include <string>
#include <vector>

#include "netbase/string_util.h"

namespace cpr {

namespace {

// What stanza the parser is currently inside.
enum class Context {
  kTopLevel,
  kInterface,
  kOspf,
  kBgp,
  kRip,
  kAccessList,
};

// One lexed word plus where it starts in the raw line (1-based column).
struct Token {
  std::string_view text;
  int col = 1;
};

class ConfigParser {
 public:
  explicit ConfigParser(std::string_view text, ParseErrorDetail* detail)
      : text_(text), detail_(detail) {}

  Result<Config> Parse() {
    for (std::string_view raw_line : SplitLines(text_)) {
      ++line_;
      std::string_view trimmed = TrimWhitespace(raw_line);
      if (trimmed.empty() || trimmed[0] == '!') {
        continue;
      }
      Lex(raw_line);
      Status status = ParseLine();
      if (!status.ok()) {
        return status.error();
      }
    }
    return std::move(config_);
  }

 private:
  // Splits the raw line into tokens, recording each token's column so error
  // messages (and cpr lint's file:line:col rendering) can point at it.
  void Lex(std::string_view raw_line) {
    tokens_.clear();
    size_t i = 0;
    while (i < raw_line.size()) {
      if (raw_line[i] == ' ' || raw_line[i] == '\t') {
        ++i;
        continue;
      }
      size_t start = i;
      while (i < raw_line.size() && raw_line[i] != ' ' && raw_line[i] != '\t') {
        ++i;
      }
      tokens_.push_back(
          Token{raw_line.substr(start, i - start), static_cast<int>(start) + 1});
    }
  }

  size_t Count() const { return tokens_.size(); }
  std::string_view Tok(size_t i) const { return tokens_[i].text; }

  // Builds a located error pointing at token `index` (clamped to just past
  // the final token when the line ended before the expected argument).
  Status Err(size_t index, std::string message) {
    int col = 1;
    if (index < tokens_.size()) {
      col = tokens_[index].col;
    } else if (!tokens_.empty()) {
      const Token& last = tokens_.back();
      col = last.col + static_cast<int>(last.text.size());
    }
    if (detail_ != nullptr) {
      detail_->line = line_;
      detail_->col = col;
      detail_->message = message;
    }
    return Error("line " + std::to_string(line_) + ":" + std::to_string(col) + ": " +
                 std::move(message));
  }

  Status ParseLine() {
    const std::string_view head = Tok(0);

    // Stanza headers and unambiguous top-level commands reset the context.
    if (head == "hostname") {
      return ParseHostname();
    }
    if (head == "interface") {
      return BeginInterface();
    }
    if (head == "router") {
      return BeginRouter();
    }
    if (head == "ip" && Count() >= 2 &&
        (Tok(1) == "route" || Tok(1) == "prefix-list" || Tok(1) == "access-list")) {
      context_ = Context::kTopLevel;
      if (Tok(1) == "route") {
        return ParseStaticRoute();
      }
      if (Tok(1) == "prefix-list") {
        return ParsePrefixListLine();
      }
      return BeginAccessList();
    }

    switch (context_) {
      case Context::kInterface:
        return ParseInterfaceLine();
      case Context::kOspf:
        return ParseOspfLine();
      case Context::kBgp:
        return ParseBgpLine();
      case Context::kRip:
        return ParseRipLine();
      case Context::kAccessList:
        return ParseAclLine();
      case Context::kTopLevel:
        break;
    }
    return Err(0, "unrecognized top-level command: " + std::string(head));
  }

  Status ParseHostname() {
    if (Count() != 2) {
      return Err(1, "hostname expects one argument");
    }
    config_.hostname = std::string(Tok(1));
    context_ = Context::kTopLevel;
    return Status::Ok();
  }

  Status BeginInterface() {
    if (Count() != 2) {
      return Err(1, "interface expects a name");
    }
    InterfaceConfig intf;
    intf.name = std::string(Tok(1));
    config_.interfaces.push_back(std::move(intf));
    context_ = Context::kInterface;
    return Status::Ok();
  }

  Status BeginRouter() {
    if (Count() < 2) {
      return Err(1, "router expects a protocol");
    }
    if (Tok(1) == "ospf") {
      int pid = 1;
      if (Count() >= 3 && !ParseInt(Tok(2), &pid)) {
        return Err(2, "malformed OSPF process id");
      }
      OspfConfig ospf;
      ospf.process_id = pid;
      config_.ospf_processes.push_back(std::move(ospf));
      context_ = Context::kOspf;
      return Status::Ok();
    }
    if (Tok(1) == "bgp") {
      int asn = 1;
      if (Count() >= 3 && !ParseInt(Tok(2), &asn)) {
        return Err(2, "malformed BGP ASN");
      }
      config_.bgp.emplace();
      config_.bgp->asn = asn;
      context_ = Context::kBgp;
      return Status::Ok();
    }
    if (Tok(1) == "rip") {
      config_.rip.emplace();
      context_ = Context::kRip;
      return Status::Ok();
    }
    return Err(1, "unknown routing protocol: " + std::string(Tok(1)));
  }

  Status BeginAccessList() {
    // ip access-list extended NAME
    if (Count() != 4 || Tok(2) != "extended") {
      return Err(2, "expected: ip access-list extended NAME");
    }
    current_acl_ = std::string(Tok(3));
    config_.access_lists[current_acl_].name = current_acl_;
    context_ = Context::kAccessList;
    return Status::Ok();
  }

  Status ParseInterfaceLine() {
    InterfaceConfig& intf = config_.interfaces.back();
    if (Tok(0) == "description") {
      std::vector<std::string> words;
      for (size_t i = 1; i < Count(); ++i) {
        words.emplace_back(Tok(i));
      }
      intf.description = JoinStrings(words, " ");
      return Status::Ok();
    }
    if (Tok(0) == "shutdown") {
      intf.shutdown = true;
      return Status::Ok();
    }
    if (Tok(0) == "ip" && Count() >= 3 && Tok(1) == "address") {
      Result<Ipv4Prefix> parsed = Ipv4Prefix::Parse(Tok(2));
      if (!parsed.ok()) {
        return Err(2, parsed.error().message());
      }
      // Keep the host address (Prefix::Parse masks it off), so re-parse the
      // address part separately.
      size_t slash = Tok(2).find('/');
      Result<Ipv4Address> ip = Ipv4Address::Parse(Tok(2).substr(0, slash));
      if (!ip.ok()) {
        return Err(2, ip.error().message());
      }
      intf.address = InterfaceAddress{*ip, parsed->length()};
      return Status::Ok();
    }
    if (Tok(0) == "ip" && Count() == 4 && Tok(1) == "access-group") {
      if (Tok(3) == "in") {
        intf.acl_in = std::string(Tok(2));
      } else if (Tok(3) == "out") {
        intf.acl_out = std::string(Tok(2));
      } else {
        return Err(3, "access-group direction must be in|out");
      }
      return Status::Ok();
    }
    if (Tok(0) == "ip" && Count() == 4 && Tok(1) == "ospf" && Tok(2) == "cost") {
      if (!ParseInt(Tok(3), &intf.ospf_cost) || intf.ospf_cost <= 0) {
        return Err(3, "malformed ospf cost");
      }
      return Status::Ok();
    }
    return Err(0, "unrecognized interface command");
  }

  Status ParseNetworkStatement(std::vector<Ipv4Prefix>* networks) {
    // network A.B.C.D/len [area N]
    if (Count() < 2) {
      return Err(1, "network expects a prefix");
    }
    Result<Ipv4Prefix> prefix = Ipv4Prefix::Parse(Tok(1));
    if (!prefix.ok()) {
      return Err(1, prefix.error().message());
    }
    networks->push_back(*prefix);
    return Status::Ok();
  }

  Status ParseRedistribute(std::vector<Redistribution>* redistributes) {
    if (Count() < 2) {
      return Err(1, "redistribute expects a source");
    }
    Redistribution redist;
    if (Tok(1) == "connected") {
      redist.from = RouteSource::kConnected;
    } else if (Tok(1) == "static") {
      redist.from = RouteSource::kStatic;
    } else if (Tok(1) == "rip") {
      redist.from = RouteSource::kRip;
    } else if (Tok(1) == "ospf" || Tok(1) == "bgp") {
      redist.from = Tok(1) == "ospf" ? RouteSource::kOspf : RouteSource::kBgp;
      if (Count() < 3 || !ParseInt(Tok(2), &redist.process_id)) {
        return Err(2, "redistribute " + std::string(Tok(1)) + " expects a process id");
      }
    } else {
      return Err(1, "unknown redistribute source: " + std::string(Tok(1)));
    }
    redistributes->push_back(redist);
    return Status::Ok();
  }

  Status ParseDistributeList(std::optional<DistributeList>* dist_list) {
    // distribute-list prefix NAME
    if (Count() != 3 || Tok(1) != "prefix") {
      return Err(1, "expected: distribute-list prefix NAME");
    }
    *dist_list = DistributeList{std::string(Tok(2))};
    return Status::Ok();
  }

  Status ParseOspfLine() {
    OspfConfig& ospf = config_.ospf_processes.back();
    if (Tok(0) == "network") {
      return ParseNetworkStatement(&ospf.networks);
    }
    if (Tok(0) == "passive-interface" && Count() == 2) {
      ospf.passive_interfaces.insert(std::string(Tok(1)));
      return Status::Ok();
    }
    if (Tok(0) == "redistribute") {
      return ParseRedistribute(&ospf.redistributes);
    }
    if (Tok(0) == "distribute-list") {
      return ParseDistributeList(&ospf.distribute_list);
    }
    return Err(0, "unrecognized OSPF command");
  }

  Status ParseBgpLine() {
    BgpConfig& bgp = *config_.bgp;
    if (Tok(0) == "neighbor" && Count() == 4 && Tok(2) == "remote-as") {
      Result<Ipv4Address> ip = Ipv4Address::Parse(Tok(1));
      if (!ip.ok()) {
        return Err(1, ip.error().message());
      }
      BgpNeighbor neighbor;
      neighbor.ip = *ip;
      if (!ParseInt(Tok(3), &neighbor.remote_as)) {
        return Err(3, "malformed remote-as");
      }
      bgp.neighbors.push_back(neighbor);
      return Status::Ok();
    }
    if (Tok(0) == "network") {
      return ParseNetworkStatement(&bgp.networks);
    }
    if (Tok(0) == "redistribute") {
      return ParseRedistribute(&bgp.redistributes);
    }
    if (Tok(0) == "distribute-list") {
      return ParseDistributeList(&bgp.distribute_list);
    }
    return Err(0, "unrecognized BGP command");
  }

  Status ParseRipLine() {
    RipConfig& rip = *config_.rip;
    if (Tok(0) == "network") {
      return ParseNetworkStatement(&rip.networks);
    }
    if (Tok(0) == "redistribute") {
      return ParseRedistribute(&rip.redistributes);
    }
    if (Tok(0) == "distribute-list") {
      return ParseDistributeList(&rip.distribute_list);
    }
    return Err(0, "unrecognized RIP command");
  }

  Status ParseAclLine() {
    // permit|deny ip SRC DST where SRC/DST is `any` or a prefix.
    if (Count() != 4 || Tok(1) != "ip" ||
        (Tok(0) != "permit" && Tok(0) != "deny")) {
      return Err(0, "expected: permit|deny ip SRC DST");
    }
    AclEntry entry;
    entry.permit = Tok(0) == "permit";
    if (Tok(2) != "any") {
      Result<Ipv4Prefix> src = Ipv4Prefix::Parse(Tok(2));
      if (!src.ok()) {
        return Err(2, src.error().message());
      }
      entry.src = *src;
    }
    if (Tok(3) != "any") {
      Result<Ipv4Prefix> dst = Ipv4Prefix::Parse(Tok(3));
      if (!dst.ok()) {
        return Err(3, dst.error().message());
      }
      entry.dst = *dst;
    }
    config_.access_lists[current_acl_].entries.push_back(entry);
    return Status::Ok();
  }

  Status ParsePrefixListLine() {
    // ip prefix-list NAME permit|deny PFX [le 32]
    if (Count() < 5 || (Tok(3) != "permit" && Tok(3) != "deny")) {
      return Err(3, "expected: ip prefix-list NAME permit|deny PREFIX [le 32]");
    }
    PrefixListEntry entry;
    entry.permit = Tok(3) == "permit";
    Result<Ipv4Prefix> prefix = Ipv4Prefix::Parse(Tok(4));
    if (!prefix.ok()) {
      return Err(4, prefix.error().message());
    }
    entry.prefix = *prefix;
    if (Count() == 7 && Tok(5) == "le" && Tok(6) == "32") {
      entry.le32 = true;
    } else if (Count() != 5) {
      return Err(5, "trailing tokens in prefix-list entry");
    }
    std::string name(Tok(2));
    config_.prefix_lists[name].name = name;
    config_.prefix_lists[name].entries.push_back(entry);
    return Status::Ok();
  }

  Status ParseStaticRoute() {
    // ip route PREFIX NEXTHOP [distance]
    if (Count() < 4) {
      return Err(2, "expected: ip route PREFIX NEXTHOP [distance]");
    }
    StaticRouteConfig route;
    Result<Ipv4Prefix> prefix = Ipv4Prefix::Parse(Tok(2));
    if (!prefix.ok()) {
      return Err(2, prefix.error().message());
    }
    route.prefix = *prefix;
    Result<Ipv4Address> next_hop = Ipv4Address::Parse(Tok(3));
    if (!next_hop.ok()) {
      return Err(3, next_hop.error().message());
    }
    route.next_hop = *next_hop;
    if (Count() >= 5) {
      if (!ParseInt(Tok(4), &route.distance) || route.distance < 1 ||
          route.distance > 255) {
        return Err(4, "malformed administrative distance");
      }
    }
    config_.static_routes.push_back(route);
    return Status::Ok();
  }

  std::string_view text_;
  ParseErrorDetail* detail_;
  Config config_;
  Context context_ = Context::kTopLevel;
  std::string current_acl_;
  std::vector<Token> tokens_;
  int line_ = 0;
};

}  // namespace

Result<Config> ParseConfig(std::string_view text, ParseErrorDetail* detail) {
  return ConfigParser(text, detail).Parse();
}

}  // namespace cpr
