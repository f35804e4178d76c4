"""Storage-engine constants.

The sizes below mirror the defaults of Figure 10 in the paper, which the
authors took from the EXODUS Storage Manager [Care86]:

* ``USABLE_PAGE_BYTES`` (the paper's *B*) = 4056 bytes of user data per page,
* ``OBJECT_HEADER_BYTES`` (the paper's *h*) = 20 bytes per object,
* ``OID_BYTES`` = 8, ``TYPE_TAG_BYTES`` = 2, ``LINK_ID_BYTES`` = 1,
* B+-tree fanout *m* = 350.

The physical page is 4096 bytes; the 40-byte difference between the raw page
and *B* is claimed by the page header and bookkeeping, consistent with the
paper's accounting.
"""

from __future__ import annotations

#: Raw size of a disk page in bytes.
PAGE_SIZE = 4096

#: Bytes of each page reserved for the page header (slot count, free-space
#: pointer, and spare room so that ``PAGE_SIZE - PAGE_HEADER_BYTES`` equals
#: the paper's usable-byte figure *B* plus the slot directory).
PAGE_HEADER_BYTES = 8

#: Bytes per slot-directory entry (record offset + record length).
SLOT_ENTRY_BYTES = 4

#: The paper's *B*: bytes of a page available for user data.  With an 8-byte
#: page header and a 4-byte slot entry per object this is an upper bound the
#: engine approaches; the analytical model uses it exactly.
USABLE_PAGE_BYTES = 4056

#: The paper's *h*: per-object storage overhead (object header).
OBJECT_HEADER_BYTES = 20

#: Size of an object identifier on disk.
OID_BYTES = 8

#: Size of a type tag stored in every object.
TYPE_TAG_BYTES = 2

#: Size of a link identifier (replication bookkeeping, Section 4.1.3).
LINK_ID_BYTES = 1

#: Default B+-tree fanout used by the analytical model.
BTREE_FANOUT = 350

#: Largest record payload a single page can hold.
MAX_RECORD_BYTES = PAGE_SIZE - PAGE_HEADER_BYTES - SLOT_ENTRY_BYTES

#: Slot-directory sentinel marking an empty (reusable) slot.
EMPTY_SLOT_OFFSET = 0xFFFF

#: Default number of frames in a buffer pool.
DEFAULT_BUFFER_FRAMES = 64

#: Rows the executor drains from the access path per sort-and-dedupe
#: batch.
JOIN_BATCH_ROWS = 256

#: Pages a batched heap scan reads ahead of its cursor (per prefetch call).
SCAN_READAHEAD_PAGES = 8
