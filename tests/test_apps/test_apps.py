"""Tests for the example applications."""

from __future__ import annotations

import pytest

from repro.apps.infoservice import InfoCommand, OrgInfoService
from repro.apps.newspaper import OnlineNewspaper
from repro.apps.stockquote import StockQuoteService


class TestStockQuotes:
    def test_quote_structure(self):
        service = StockQuoteService()
        quote = service.handle_request("u", "acme")
        assert quote.ticker == "ACME"
        assert quote.price > 0
        assert quote.serial == 1

    def test_prices_walk_deterministically(self):
        a = StockQuoteService()
        b = StockQuoteService()
        prices_a = [a.handle_request("u", "X").price for _ in range(10)]
        prices_b = [b.handle_request("u", "X").price for _ in range(10)]
        assert prices_a == prices_b

    def test_tickers_independent(self):
        service = StockQuoteService()
        service.handle_request("u", "AAA")
        quote = service.handle_request("u", "BBB")
        assert quote.serial == 1

    def test_price_never_nonpositive(self):
        service = StockQuoteService(base_price=0.05, volatility=1.0)
        for _ in range(200):
            assert service.handle_request("u", "Z").price > 0

    def test_invalid_payload_rejected(self):
        service = StockQuoteService()
        with pytest.raises(ValueError):
            service.handle_request("u", 42)
        with pytest.raises(ValueError):
            service.handle_request("u", "")

    def test_request_counter(self):
        service = StockQuoteService()
        service.handle_request("u", "A")
        service.handle_request("u", "B")
        assert service.requests_served == 2


class TestOrgInfo:
    def test_write_read_roundtrip(self):
        service = OrgInfoService()
        assert service.handle_request("u", InfoCommand("write", "k", "v")).ok
        result = service.handle_request("u", InfoCommand("read", "k"))
        assert result.ok and result.value == "v"

    def test_read_missing_key(self):
        result = OrgInfoService().handle_request("u", InfoCommand("read", "nope"))
        assert not result.ok and "no such key" in result.error

    def test_delete(self):
        service = OrgInfoService()
        service.handle_request("u", InfoCommand("write", "k", 1))
        assert service.handle_request("u", InfoCommand("delete", "k")).ok
        assert not service.handle_request("u", InfoCommand("delete", "k")).ok

    def test_list_sorted(self):
        service = OrgInfoService()
        service.handle_request("u", InfoCommand("write", "b", 1))
        service.handle_request("u", InfoCommand("write", "a", 1))
        assert service.handle_request("u", InfoCommand("list")).value == ["a", "b"]

    def test_bad_payloads(self):
        service = OrgInfoService()
        assert not service.handle_request("u", "not-a-command").ok
        assert not service.handle_request("u", InfoCommand("frobnicate")).ok
        assert not service.handle_request("u", InfoCommand("write")).ok

    def test_audit_log(self):
        service = OrgInfoService()
        service.handle_request("alice", InfoCommand("write", "k", 1))
        service.handle_request("bob", InfoCommand("read", "k"))
        service.handle_request("alice", InfoCommand("read", "k"))
        assert service.accesses_by("alice") == [
            ("alice", "write", "k"),
            ("alice", "read", "k"),
        ]


class TestNewspaper:
    def test_first_edition_published_at_start(self):
        paper = OnlineNewspaper()
        assert paper.latest_edition == 1

    def test_read_latest_section(self):
        paper = OnlineNewspaper()
        article = paper.handle_request("u", "front")
        assert article.edition == 1 and article.section == "front"
        assert paper.reads_served == 1

    def test_read_specific_edition(self):
        paper = OnlineNewspaper()
        paper.publish_edition()
        article = paper.handle_request("u", (1, "sports"))
        assert article.edition == 1

    def test_missing_edition_or_section(self):
        paper = OnlineNewspaper()
        assert paper.handle_request("u", (99, "front")) is None
        assert paper.handle_request("u", "horoscope") is None
        assert paper.reads_served == 0

    def test_publish_advances(self):
        paper = OnlineNewspaper()
        assert paper.publish_edition() == 2
        assert paper.handle_request("u", "front").edition == 2
