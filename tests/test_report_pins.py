"""Full checker reports on broken and passing inputs, pinned before the
structure constants became sparse and the checkers began comparing before
subtracting: violations in order, a digest of their formatted residuals, and
the number of instances checked.  Any change to which instances are
evaluated, in what order, or with what residual shows up here.

Re-record (only when a report is meant to change) with
``PYTHONPATH=src python tests/test_report_pins.py``.
"""

import hashlib

import pytest

import dataclasses

from corpus import dense, dense_entries
from homhopf.applications import (check_yd_module, regular_comodule_algebra,
                                  relative_datum, trivial_yd_module, yd_datum)
from homhopf.core import HomHopfAlgebra, check_hom_hopf
from homhopf.doi import (ComoduleAlgebra, DoiDatum, DoiModule, ModuleCoalgebra,
                         check_doi_datum, check_doi_module, check_module_coalgebra)
from homhopf.golden import golden_file
from homhopf.linalg import Field, Tensor3
from homhopf.maschke import canonical_module
from homhopf.zoo import group_algebra, twisted_group_algebra, twisted_sweedler

FIELDS = {"Q": Field.rationals(), "GF7": Field.prime(7)}


def summary(rep):
    text = "\n".join(f"{v.axiom} {v.index} {' '.join(map(str, v.residual))}"
                     for v in rep.violations)
    return (rep.checked, [(v.axiom, v.index) for v in rep.violations],
            hashlib.sha256(text.encode()).hexdigest())


def _changed(t: Tensor3, idx: int) -> Tensor3:
    ent = list(dense_entries(t))
    ent[idx] = ent[idx] + t.field.one()
    return dense(t.field, ent, t.shape)


def golden_hopf(name, field):
    return check_hom_hopf(golden_file(name, field).build("H"))


def kz7_antipode_moved(field):
    # S(g) = g^5 instead of g^6: the 1 in column 1 moves up one row
    h = group_algebra(7, field)
    ent = list(dense_entries(h.antipode))
    ent[6 * 7 + 1], ent[5 * 7 + 1] = ent[5 * 7 + 1], ent[6 * 7 + 1]
    bad = dense(field, ent, (7, 7))
    return check_hom_hopf(HomHopfAlgebra(field, 7, h.alpha, h.mult, h.unit,
                                         h.comult, h.counit, bad))


def yd_kz3t_coaction_changed(field):
    d = yd_datum(twisted_group_algebra(3, 2, field))
    a = ComoduleAlgebra(d.algebra.algebra, _changed(d.algebra.coaction, 5))
    return check_doi_datum(DoiDatum(d.hopf, a, d.coalgebra))


def doi_module_action_changed(field):
    h = twisted_group_algebra(3, 2, field)
    d = relative_datum(h, regular_comodule_algebra(h))
    m = canonical_module(d)
    bad = DoiModule(field, m.dim, m.mu, _changed(m.action, 4), m.coaction)
    return check_doi_module(bad, d)


def yd_kz4t_passing(field):
    return check_doi_datum(yd_datum(twisted_group_algebra(4, 3, field)))


def sweedler_t_mult_changed(field):
    h = twisted_sweedler(field)
    return check_hom_hopf(dataclasses.replace(h, mult=_changed(h.mult, 5)))


def relative_sweedler_t_action_changed(field):
    h = twisted_sweedler(field)
    c = relative_datum(h, regular_comodule_algebra(h)).coalgebra
    return check_module_coalgebra(ModuleCoalgebra(c.coalgebra, _changed(c.action, 5)), h)


def yd_trivial_sweedler_t_action_changed(field):
    h = twisted_sweedler(field)
    m = trivial_yd_module(h)
    bad = DoiModule(field, m.dim, m.mu, _changed(m.action, 1), m.coaction)
    return check_yd_module(bad, h)


def kz4t_mult_changed(field):
    # one product changed among products that repeat: Hom-associativity
    # fails in several i-blocks, and comult_multiplicative on leg products
    h = twisted_group_algebra(4, 3, field)
    return check_hom_hopf(dataclasses.replace(h, mult=_changed(h.mult, 25)))


def yd_kz3t_action_changed(field):
    # C's module twist and module Hom-associativity fail interleaved, and
    # action_comultiplicative on leg products
    d = yd_datum(twisted_group_algebra(3, 2, field))
    c = ModuleCoalgebra(d.coalgebra.coalgebra, _changed(d.coalgebra.action, 7))
    return check_doi_datum(DoiDatum(d.hopf, d.algebra, c))


def relative_sweedler_t_module_changed(field, part):
    h = twisted_sweedler(field)
    d = relative_datum(h, regular_comodule_algebra(h))
    m = canonical_module(d)
    parts = {"action": m.action, "coaction": m.coaction, part: _changed(getattr(m, part), 9)}
    return check_doi_module(DoiModule(field, m.dim, m.mu, **parts), d)


CASES = {
    "kZ2_corrupted_mult": lambda f: golden_hopf("kZ2_corrupted_mult", f),
    "H4_corrupted_antipode": lambda f: golden_hopf("H4_corrupted_antipode", f),
    "kZ7_antipode_moved": kz7_antipode_moved,
    "yd_kZ3t_coaction_changed": yd_kz3t_coaction_changed,
    "doi_module_action_changed": doi_module_action_changed,
    "yd_kZ4t_passing": yd_kz4t_passing,
    "sweedler_t_mult_changed": sweedler_t_mult_changed,
    "relative_sweedler_t_action_changed": relative_sweedler_t_action_changed,
    "yd_trivial_sweedler_t_action_changed": yd_trivial_sweedler_t_action_changed,
    "kZ4t_mult_changed": kz4t_mult_changed,
    "yd_kZ3t_action_changed": yd_kz3t_action_changed,
    "relative_sweedler_t_module_action_changed":
        lambda f: relative_sweedler_t_module_changed(f, "action"),
    "relative_sweedler_t_module_coaction_changed":
        lambda f: relative_sweedler_t_module_changed(f, "coaction"),
}

#: recorded at the parent of the sparse-tensor change
PINS = {'H4_corrupted_antipode': {'GF7': (155,
                                   [('antipode_left', (2,)), ('antipode_right', (2,))],
                                   '74af1441d45cec1f1b1d67b9ef2a53f3192165a3ca6531e316b288bb9024f4a9'),
                           'Q': (155,
                                 [('antipode_left', (2,)), ('antipode_right', (2,))],
                                 '74af1441d45cec1f1b1d67b9ef2a53f3192165a3ca6531e316b288bb9024f4a9')},
 'doi_module_action_changed': {'GF7': (171,
                                       [('module_unit', (0,)),
                                        ('module_twist', (0, 0)),
                                        ('module_hom_associativity', (0, 0, 0)),
                                        ('module_hom_associativity', (0, 0, 1)),
                                        ('module_hom_associativity', (0, 0, 2)),
                                        ('module_hom_associativity', (0, 1, 2)),
                                        ('module_hom_associativity', (0, 2, 1)),
                                        ('module_hom_associativity', (4, 1, 0)),
                                        ('module_hom_associativity', (8, 2, 0)),
                                        ('doi_compatibility', (0, 0))],
                                       'e22fbcb33e1b218e0c988aad5b2b401520054cffe6d6b4a954e3f1c16d6261a5'),
                               'Q': (171,
                                     [('module_unit', (0,)),
                                      ('module_twist', (0, 0)),
                                      ('module_hom_associativity', (0, 0, 0)),
                                      ('module_hom_associativity', (0, 0, 1)),
                                      ('module_hom_associativity', (0, 0, 2)),
                                      ('module_hom_associativity', (0, 1, 2)),
                                      ('module_hom_associativity', (0, 2, 1)),
                                      ('module_hom_associativity', (4, 1, 0)),
                                      ('module_hom_associativity', (8, 2, 0)),
                                      ('doi_compatibility', (0, 0))],
                                     '3b82824ff1537aa92a2873700cc06b11fa1750c0b55d0d3fbcc46f4e3cb8d0d2')},
 'kZ2_corrupted_mult': {'GF7': (43,
                                [('right_unit', (0,)),
                                 ('left_unit', (0,)),
                                 ('hom_associativity', (0, 0, 1)),
                                 ('hom_associativity', (0, 1, 1)),
                                 ('hom_associativity', (1, 0, 0)),
                                 ('hom_associativity', (1, 1, 0)),
                                 ('antipode_left', (0,)),
                                 ('antipode_right', (0,))],
                                'c7b79a4f19f088bf53dcc9a646fcd2e6754eb847e6f27dece3e7092f92f6b2b6'),
                        'Q': (43,
                              [('right_unit', (0,)),
                               ('left_unit', (0,)),
                               ('hom_associativity', (0, 0, 1)),
                               ('hom_associativity', (0, 1, 1)),
                               ('hom_associativity', (1, 0, 0)),
                               ('hom_associativity', (1, 1, 0)),
                               ('antipode_left', (0,)),
                               ('antipode_right', (0,))],
                              'b2d94650d8893fe6699208488965e51b88760a3cb6378aa7c9015f583e32ebf0')},
 'kZ7_antipode_moved': {'GF7': (563,
                                [('antipode_left', (1,)), ('antipode_right', (1,))],
                                '2fec86339b1c432f26562ef3ce4c4c6813808d42823e6bf3e1957cf0859bf160'),
                        'Q': (563,
                              [('antipode_left', (1,)), ('antipode_right', (1,))],
                              '0b76aaaa16217e2525c347b2144a617cb4cfee0d6efb4596505d04b967daae5c')},
 'yd_kZ3t_coaction_changed': {'GF7': (1411,
                                      [('comodule_counit', (0,)),
                                       ('comodule_coassociativity', (0,)),
                                       ('comodule_twist', (0,)),
                                       ('coaction_unit', ()),
                                       ('coaction_multiplicative', (0, 0)),
                                       ('coaction_multiplicative', (0, 1)),
                                       ('coaction_multiplicative', (0, 2)),
                                       ('coaction_multiplicative', (1, 0)),
                                       ('coaction_multiplicative', (1, 2)),
                                       ('coaction_multiplicative', (2, 0)),
                                       ('coaction_multiplicative', (2, 1))],
                                      '3fd2ff049705eeb32196a09ea2522319e44fba8b522682d5c557ce83294cfd81'),
                              'Q': (1411,
                                    [('comodule_counit', (0,)),
                                     ('comodule_coassociativity', (0,)),
                                     ('comodule_twist', (0,)),
                                     ('coaction_unit', ()),
                                     ('coaction_multiplicative', (0, 0)),
                                     ('coaction_multiplicative', (0, 1)),
                                     ('coaction_multiplicative', (0, 2)),
                                     ('coaction_multiplicative', (1, 0)),
                                     ('coaction_multiplicative', (1, 2)),
                                     ('coaction_multiplicative', (2, 0)),
                                     ('coaction_multiplicative', (2, 1))],
                                    '415973daa7ae194e206f3abd318b6261c1cff2c5f3a7b8e3be671d37f4f6dc19')},
 'yd_kZ4t_passing': {'GF7': (6276,
                             [],
                             'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
                     'Q': (6276,
                           [],
                           'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855')}}


#: recorded before the product side of the compatibility laws was written
#: once, as ``core.leg_products``
PINS.update({'relative_sweedler_t_action_changed': {'GF7': (116,
                                                            [('module_hom_associativity', (0, 1, 1)),
                                                             ('module_hom_associativity', (0, 1, 2)),
                                                             ('module_hom_associativity', (0, 1, 3)),
                                                             ('module_hom_associativity', (1, 1, 1)),
                                                             ('action_comultiplicative', (0, 1)),
                                                             ('action_counit', (0, 1)),
                                                             ('action_comultiplicative', (0, 2)),
                                                             ('action_comultiplicative', (0, 3)),
                                                             ('action_comultiplicative', (2, 1)),
                                                             ('action_comultiplicative', (3, 1))],
                                                            '453bfbb4765940d0c0994438032c02a1ebe0180c39fe4b8ac294e6d0e6bde536'),
                                                    'Q': (116,
                                                          [('module_hom_associativity', (0, 1, 1)),
                                                           ('module_hom_associativity', (0, 1, 2)),
                                                           ('module_hom_associativity', (0, 1, 3)),
                                                           ('module_hom_associativity', (1, 1, 1)),
                                                           ('action_comultiplicative', (0, 1)),
                                                           ('action_counit', (0, 1)),
                                                           ('action_comultiplicative', (0, 2)),
                                                           ('action_comultiplicative', (0, 3)),
                                                           ('action_comultiplicative', (2, 1)),
                                                           ('action_comultiplicative', (3, 1))],
                                                          '8723923e408272045c2b303adaaf50d9786c0e94035327bee926a703d06c1a8a')},
             'sweedler_t_mult_changed': {'GF7': (155,
                                                 [('left_unit', (1,)),
                                                  ('hom_associativity', (0, 0, 1)),
                                                  ('hom_associativity', (0, 1, 1)),
                                                  ('hom_associativity', (0, 1, 2)),
                                                  ('hom_associativity', (0, 1, 3)),
                                                  ('hom_associativity', (1, 0, 1)),
                                                  ('hom_associativity', (1, 1, 1)),
                                                  ('hom_associativity', (2, 0, 1)),
                                                  ('hom_associativity', (3, 0, 1)),
                                                  ('comult_multiplicative', (0, 1)),
                                                  ('counit_multiplicative', (0, 1)),
                                                  ('comult_multiplicative', (0, 2)),
                                                  ('comult_multiplicative', (0, 3)),
                                                  ('comult_multiplicative', (2, 1)),
                                                  ('comult_multiplicative', (3, 1))],
                                                 'eac9bccd59de005b5d1e86b13f4207923271f1d9ddfb60bb5de64772069b887c'),
                                         'Q': (155,
                                               [('left_unit', (1,)),
                                                ('hom_associativity', (0, 0, 1)),
                                                ('hom_associativity', (0, 1, 1)),
                                                ('hom_associativity', (0, 1, 2)),
                                                ('hom_associativity', (0, 1, 3)),
                                                ('hom_associativity', (1, 0, 1)),
                                                ('hom_associativity', (1, 1, 1)),
                                                ('hom_associativity', (2, 0, 1)),
                                                ('hom_associativity', (3, 0, 1)),
                                                ('comult_multiplicative', (0, 1)),
                                                ('counit_multiplicative', (0, 1)),
                                                ('comult_multiplicative', (0, 2)),
                                                ('comult_multiplicative', (0, 3)),
                                                ('comult_multiplicative', (2, 1)),
                                                ('comult_multiplicative', (3, 1))],
                                               '6ab334bd49adfdd3211b03d5bebf1da61fb98110daef624aef4a95bf3c525467')},
             'yd_trivial_sweedler_t_action_changed': {'GF7': (4,
                                                              [('yd_compatibility', (0, 2)),
                                                               ('yd_compatibility', (0, 3))],
                                                              'cf43938a4d360a580157267e9c95fdab65825a919d7eca25ea5e5b526d1204bc'),
                                                      'Q': (4,
                                                            [('yd_compatibility', (0, 2)),
                                                             ('yd_compatibility', (0, 3))],
                                                            'c048ed485efbd145e29515bfd7a17662cf9daf81693577d90ded02ef35ded977')}})


#: recorded before each product of basis vectors was evaluated once per
#: distinct value: products that repeat, with violations in several blocks
PINS.update({'kZ4t_mult_changed': {'GF7': (155,
                                           [('twist_multiplicative', (1, 2)),
                                            ('twist_multiplicative', (3, 2)),
                                            ('hom_associativity', (0, 1, 2)),
                                            ('hom_associativity', (0, 3, 2)),
                                            ('hom_associativity', (1, 1, 2)),
                                            ('hom_associativity', (1, 2, 0)),
                                            ('hom_associativity', (1, 2, 1)),
                                            ('hom_associativity', (1, 2, 2)),
                                            ('hom_associativity', (1, 2, 3)),
                                            ('hom_associativity', (3, 1, 1)),
                                            ('hom_associativity', (3, 1, 2)),
                                            ('hom_associativity', (3, 2, 0)),
                                            ('hom_associativity', (3, 3, 3)),
                                            ('comult_multiplicative', (1, 2)),
                                            ('counit_multiplicative', (1, 2)),
                                            ('comult_multiplicative', (3, 2))],
                                           'd80f830f855a7ca2b2f8f8f8c38357625e07b18a0aac2deb2c0b5948b76082de'),
                                   'Q': (155,
                                         [('twist_multiplicative', (1, 2)),
                                          ('twist_multiplicative', (3, 2)),
                                          ('hom_associativity', (0, 1, 2)),
                                          ('hom_associativity', (0, 3, 2)),
                                          ('hom_associativity', (1, 1, 2)),
                                          ('hom_associativity', (1, 2, 0)),
                                          ('hom_associativity', (1, 2, 1)),
                                          ('hom_associativity', (1, 2, 2)),
                                          ('hom_associativity', (1, 2, 3)),
                                          ('hom_associativity', (3, 1, 1)),
                                          ('hom_associativity', (3, 1, 2)),
                                          ('hom_associativity', (3, 2, 0)),
                                          ('hom_associativity', (3, 3, 3)),
                                          ('comult_multiplicative', (1, 2)),
                                          ('counit_multiplicative', (1, 2)),
                                          ('comult_multiplicative', (3, 2))],
                                         '52833e78422b997d4e0b545375f35ee8fff8a442de70961ffdc6b70b8c65a340')},
             'relative_sweedler_t_module_action_changed': {'GF7': (448,
                                                                   [('module_unit', (0,)),
                                                                    ('module_twist', (0, 0)),
                                                                    ('module_hom_associativity', (0, 0, 0)),
                                                                    ('module_hom_associativity', (0, 0, 1)),
                                                                    ('module_hom_associativity', (0, 0, 2)),
                                                                    ('module_hom_associativity', (0, 0, 3)),
                                                                    ('module_hom_associativity', (0, 1, 1)),
                                                                    ('module_hom_associativity', (5, 1, 0)),
                                                                    ('doi_compatibility', (0, 0)),
                                                                    ('doi_compatibility', (0, 3)),
                                                                    ('doi_compatibility', (3, 0))],
                                                                   'c25eeaf73ad453a72e98dc1c024cca1a23f7d9842664b07fa3cd5ac188257fc0'),
                                                           'Q': (448,
                                                                 [('module_unit', (0,)),
                                                                  ('module_twist', (0, 0)),
                                                                  ('module_hom_associativity', (0, 0, 0)),
                                                                  ('module_hom_associativity', (0, 0, 1)),
                                                                  ('module_hom_associativity', (0, 0, 2)),
                                                                  ('module_hom_associativity', (0, 0, 3)),
                                                                  ('module_hom_associativity', (0, 1, 1)),
                                                                  ('module_hom_associativity', (5, 1, 0)),
                                                                  ('doi_compatibility', (0, 0)),
                                                                  ('doi_compatibility', (0, 3)),
                                                                  ('doi_compatibility', (3, 0))],
                                                                 'e6047e7f4c6607014f74d459696b3e5c33ae288c81b00614b7055c8f9a40f307')},
             'relative_sweedler_t_module_coaction_changed': {'GF7': (448,
                                                                     [('comodule_counit', (0,)),
                                                                      ('comodule_coassociativity', (0,)),
                                                                      ('comodule_twist', (0,)),
                                                                      ('comodule_coassociativity', (3,)),
                                                                      ('doi_compatibility', (0, 0)),
                                                                      ('doi_compatibility', (0, 1)),
                                                                      ('doi_compatibility', (0, 2)),
                                                                      ('doi_compatibility', (0, 3)),
                                                                      ('doi_compatibility', (5, 1))],
                                                                     '0dd6b4c4e07fc8535201b6573873fa4d867d00fc6b5ca425b1d48c32509f17d1'),
                                                             'Q': (448,
                                                                   [('comodule_counit', (0,)),
                                                                    ('comodule_coassociativity', (0,)),
                                                                    ('comodule_twist', (0,)),
                                                                    ('comodule_coassociativity', (3,)),
                                                                    ('doi_compatibility', (0, 0)),
                                                                    ('doi_compatibility', (0, 1)),
                                                                    ('doi_compatibility', (0, 2)),
                                                                    ('doi_compatibility', (0, 3)),
                                                                    ('doi_compatibility', (5, 1))],
                                                                   '6cb6127cba4451d63c8139dc208699fc67987a8acfec794de48ac23bc3eb3462')},
             'yd_kZ3t_action_changed': {'GF7': (1411,
                                                [('module_twist', (0, 1)),
                                                 ('module_hom_associativity', (0, 1, 0)),
                                                 ('module_twist', (0, 2)),
                                                 ('module_hom_associativity', (0, 2, 0)),
                                                 ('module_hom_associativity', (0, 2, 1)),
                                                 ('module_hom_associativity', (0, 2, 2)),
                                                 ('module_hom_associativity', (0, 2, 3)),
                                                 ('module_hom_associativity', (0, 2, 4)),
                                                 ('module_hom_associativity', (0, 2, 5)),
                                                 ('module_hom_associativity', (0, 2, 6)),
                                                 ('module_hom_associativity', (0, 2, 7)),
                                                 ('module_hom_associativity', (0, 2, 8)),
                                                 ('module_hom_associativity', (0, 3, 7)),
                                                 ('module_hom_associativity', (0, 4, 6)),
                                                 ('module_hom_associativity', (0, 5, 1)),
                                                 ('module_hom_associativity', (0, 5, 8)),
                                                 ('module_hom_associativity', (0, 6, 4)),
                                                 ('module_hom_associativity', (0, 7, 1)),
                                                 ('module_hom_associativity', (0, 7, 3)),
                                                 ('module_hom_associativity', (0, 8, 5)),
                                                 ('module_hom_associativity', (1, 1, 1)),
                                                 ('module_hom_associativity', (1, 3, 1)),
                                                 ('module_hom_associativity', (1, 8, 1)),
                                                 ('module_hom_associativity', (2, 2, 1)),
                                                 ('module_hom_associativity', (2, 4, 1)),
                                                 ('module_hom_associativity', (2, 6, 1)),
                                                 ('action_comultiplicative', (0, 1)),
                                                 ('action_comultiplicative', (0, 2)),
                                                 ('action_counit', (0, 2))],
                                                '88f7962881fe81a603967dc39b99ec5b808e33962ca108f8f7eaa1395e14722f'),
                                        'Q': (1411,
                                              [('module_twist', (0, 1)),
                                               ('module_hom_associativity', (0, 1, 0)),
                                               ('module_twist', (0, 2)),
                                               ('module_hom_associativity', (0, 2, 0)),
                                               ('module_hom_associativity', (0, 2, 1)),
                                               ('module_hom_associativity', (0, 2, 2)),
                                               ('module_hom_associativity', (0, 2, 3)),
                                               ('module_hom_associativity', (0, 2, 4)),
                                               ('module_hom_associativity', (0, 2, 5)),
                                               ('module_hom_associativity', (0, 2, 6)),
                                               ('module_hom_associativity', (0, 2, 7)),
                                               ('module_hom_associativity', (0, 2, 8)),
                                               ('module_hom_associativity', (0, 3, 7)),
                                               ('module_hom_associativity', (0, 4, 6)),
                                               ('module_hom_associativity', (0, 5, 1)),
                                               ('module_hom_associativity', (0, 5, 8)),
                                               ('module_hom_associativity', (0, 6, 4)),
                                               ('module_hom_associativity', (0, 7, 1)),
                                               ('module_hom_associativity', (0, 7, 3)),
                                               ('module_hom_associativity', (0, 8, 5)),
                                               ('module_hom_associativity', (1, 1, 1)),
                                               ('module_hom_associativity', (1, 3, 1)),
                                               ('module_hom_associativity', (1, 8, 1)),
                                               ('module_hom_associativity', (2, 2, 1)),
                                               ('module_hom_associativity', (2, 4, 1)),
                                               ('module_hom_associativity', (2, 6, 1)),
                                               ('action_comultiplicative', (0, 1)),
                                               ('action_comultiplicative', (0, 2)),
                                               ('action_counit', (0, 2))],
                                              'f4f058dd2a0e518f0b22f78f19f3998aeb2ba817a839634e14c3dc99df3ce98f')}})


@pytest.mark.parametrize("fname", sorted(FIELDS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_is_pinned(case, fname):
    checked, violations, digest = PINS[case][fname]
    got = summary(CASES[case](FIELDS[fname]))
    assert got == (checked, violations, digest)


if __name__ == "__main__":
    import pprint
    pprint.pprint({case: {fname: summary(build(f)) for fname, f in FIELDS.items()}
                   for case, build in CASES.items()}, width=100)
