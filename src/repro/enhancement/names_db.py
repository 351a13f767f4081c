"""Embedded names database.

The paper uses the ``names`` Python package to mint unique human-readable
representations for the differentiability-based transformation (Sec. 4.1.5).
That package just samples from US-census first/last-name lists; this module
embeds a sufficient subset and generates deterministic, collision-free
"First Last" names (falling back to numbered suffixes once the combination
space is exhausted, so the generator never fails).
"""

from __future__ import annotations

import random

FIRST_NAMES = (
    "James", "Mary", "Robert", "Patricia", "John", "Jennifer", "Michael", "Linda",
    "David", "Elizabeth", "William", "Barbara", "Richard", "Susan", "Joseph", "Jessica",
    "Thomas", "Sarah", "Charles", "Karen", "Christopher", "Lisa", "Daniel", "Nancy",
    "Matthew", "Betty", "Anthony", "Margaret", "Mark", "Sandra", "Donald", "Ashley",
    "Steven", "Kimberly", "Paul", "Emily", "Andrew", "Donna", "Joshua", "Michelle",
    "Kenneth", "Carol", "Kevin", "Amanda", "Brian", "Dorothy", "George", "Melissa",
    "Timothy", "Deborah", "Ronald", "Stephanie", "Edward", "Rebecca", "Jason", "Sharon",
    "Jeffrey", "Laura", "Ryan", "Cynthia", "Jacob", "Kathleen", "Gary", "Amy",
    "Nicholas", "Angela", "Eric", "Shirley", "Jonathan", "Anna", "Stephen", "Brenda",
    "Larry", "Pamela", "Justin", "Emma", "Scott", "Nicole", "Brandon", "Helen",
    "Benjamin", "Samantha", "Samuel", "Katherine", "Gregory", "Christine", "Alexander", "Debra",
    "Patrick", "Rachel", "Frank", "Carolyn", "Raymond", "Janet", "Jack", "Catherine",
    "Dennis", "Maria", "Jerry", "Heather", "Tyler", "Diane", "Aaron", "Ruth",
    "Jose", "Julie", "Adam", "Olivia", "Nathan", "Joyce", "Henry", "Virginia",
    "Douglas", "Victoria", "Zachary", "Kelly", "Peter", "Lauren", "Kyle", "Christina",
    "Ethan", "Joan", "Walter", "Evelyn", "Noah", "Judith", "Jeremy", "Megan",
    "Christian", "Andrea", "Keith", "Cheryl", "Roger", "Hannah", "Terry", "Jacqueline",
    "Gerald", "Martha", "Harold", "Gloria", "Sean", "Teresa", "Austin", "Ann",
    "Carl", "Sara", "Arthur", "Madison", "Lawrence", "Frances", "Dylan", "Kathryn",
    "Jesse", "Janice", "Jordan", "Jean", "Bryan", "Abigail", "Billy", "Alice",
    "Joe", "Julia", "Bruce", "Judy", "Gabriel", "Sophia", "Logan", "Grace",
    "Albert", "Denise", "Willie", "Amber", "Alan", "Doris", "Juan", "Marilyn",
    "Wayne", "Danielle", "Elijah", "Beverly", "Randy", "Isabella", "Roy", "Theresa",
    "Vincent", "Diana", "Ralph", "Natalie", "Eugene", "Brittany", "Russell", "Charlotte",
    "Bobby", "Marie", "Mason", "Kayla", "Philip", "Alexis", "Louis", "Lori",
)

LAST_NAMES = (
    "Smith", "Johnson", "Williams", "Brown", "Jones", "Garcia", "Miller", "Davis",
    "Rodriguez", "Martinez", "Hernandez", "Lopez", "Gonzalez", "Wilson", "Anderson", "Thomas",
    "Taylor", "Moore", "Jackson", "Martin", "Lee", "Perez", "Thompson", "White",
    "Harris", "Sanchez", "Clark", "Ramirez", "Lewis", "Robinson", "Walker", "Young",
    "Allen", "King", "Wright", "Scott", "Torres", "Nguyen", "Hill", "Flores",
    "Green", "Adams", "Nelson", "Baker", "Hall", "Rivera", "Campbell", "Mitchell",
    "Carter", "Roberts", "Gomez", "Phillips", "Evans", "Turner", "Diaz", "Parker",
    "Cruz", "Edwards", "Collins", "Reyes", "Stewart", "Morris", "Morales", "Murphy",
    "Cook", "Rogers", "Gutierrez", "Ortiz", "Morgan", "Cooper", "Peterson", "Bailey",
    "Reed", "Kelly", "Howard", "Ramos", "Kim", "Cox", "Ward", "Richardson",
    "Watson", "Brooks", "Chavez", "Wood", "James", "Bennett", "Gray", "Mendoza",
    "Ruiz", "Hughes", "Price", "Alvarez", "Castillo", "Sanders", "Patel", "Myers",
    "Long", "Ross", "Foster", "Jimenez", "Powell", "Jenkins", "Perry", "Russell",
    "Sullivan", "Bell", "Coleman", "Butler", "Henderson", "Barnes", "Gonzales", "Fisher",
    "Vasquez", "Simmons", "Romero", "Jordan", "Patterson", "Alexander", "Hamilton", "Graham",
    "Reynolds", "Griffin", "Wallace", "Moreno", "West", "Cole", "Hayes", "Bryant",
)


class UniqueNameGenerator:
    """Deterministically mint unique 'First_Last' names.

    The generator never repeats a name: it walks a seeded permutation of the
    first-by-last product and, once exhausted, appends a numeric suffix.  It
    also never emits a name in the caller-supplied ``reserved`` set, so names
    already appearing in the table cannot collide with minted ones (the paper
    requires the unique representations to not appear in the table).

    Names are joined with an underscore so the word tokenizer treats each one
    as a single token; multi-token labels would push the previous column's
    value out of the n-gram context window and weaken exactly the cross-column
    modelling the transformation is meant to improve.
    """

    def __init__(self, seed: int = 0, reserved: set[str] | None = None):
        self._rng = random.Random(seed)
        self._reserved = set(reserved or ())
        self._issued: set[str] = set()
        self._order = [
            (i, j) for i in range(len(FIRST_NAMES)) for j in range(len(LAST_NAMES))
        ]
        self._rng.shuffle(self._order)
        self._cursor = 0
        self._suffix = 1

    def next_name(self) -> str:
        """Return the next unused, unreserved name."""
        while self._cursor < len(self._order):
            i, j = self._order[self._cursor]
            self._cursor += 1
            name = "{}_{}".format(FIRST_NAMES[i], LAST_NAMES[j])
            if name not in self._reserved and name not in self._issued:
                self._issued.add(name)
                return name
        # combination space exhausted: fall back to suffixed names
        while True:
            i, j = self._order[self._suffix % len(self._order)]
            name = "{}_{}_{}".format(FIRST_NAMES[i], LAST_NAMES[j], self._suffix)
            self._suffix += 1
            if name not in self._reserved and name not in self._issued:
                self._issued.add(name)
                return name

    def generate(self, count: int) -> list[str]:
        """Return *count* distinct names."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return [self.next_name() for _ in range(count)]
